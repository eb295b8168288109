//! Evaluating a p-node's provenance as a circuit over the shared graph.
//!
//! The provenance graph is a circuit (§3): `+` nodes add their
//! ingredients, `·`, module, zoom and black-box nodes multiply them,
//! `δ` nodes deduplicate their sum, and tokens and invocations are its
//! inputs. [`eval_node`] computes a p-node's value in any [`Circuit`]
//! algebra with one iterative post-order pass over the node's visible
//! cone, keeping one value per cone node in a cone-local table: a
//! sub-derivation shared by many parents is evaluated once, however
//! often its expansion would repeat it, and no recursion ties the
//! cone's depth to the thread's stack. `WHY`, `EVAL` and
//! [`crate::ProvGraph::expr_of`] all run through it.
//!
//! The algebras:
//!
//! - every [`Semiring`], through [`Valued`] and a token valuation;
//! - [`ProvExpr`], through [`Symbolic`] and its smart constructors (not
//!   a `Semiring`: its structural `Eq` breaks the laws);
//! - [`Shape`], through [`Limits`], which measures what a symbolic
//!   value would expand to and refuses one past its bounds. A pass in
//!   `Limits` before a symbolic one keeps a refusal at one pass over
//!   the cone.

use std::collections::HashMap;
use std::ops::Range;

use crate::graph::{NodeId, NodeKind};
use crate::obs::TraceCtx;
use crate::query::QueryError;
use crate::semiring::{self, ProvExpr, Semiring, Token};
use crate::store::GraphStore;

/// How a composite node combines its visible p-node ingredients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Plus`: ⊕ of the ingredients.
    Sum,
    /// `Times`, module input/output, state, zoomed and black-box nodes:
    /// ⊗ of the ingredients. A v-node is the empty product, 1: it
    /// carries no tuple provenance of its own.
    Prod,
    /// `Delta`: δ of their ⊕.
    Delta,
}

/// The operations [`eval_node`] folds a cone with.
pub trait Circuit {
    type Value: Clone;
    /// An input token's value: a base tuple's or workflow input's
    /// token, or an invocation's `⟨module#execution⟩`.
    fn token(&self, t: &Token) -> Self::Value;
    /// A composite node's value. Only [`Limits`] refuses one.
    fn combine(&self, op: Op, parts: Vec<Self::Value>) -> Result<Self::Value, QueryError>;
}

/// A [`Semiring`] as a circuit, valuing each input token with `F`.
pub struct Valued<F>(pub F);

impl<K: Semiring, F: Fn(&Token) -> K> Circuit for Valued<F> {
    type Value = K;
    fn token(&self, t: &Token) -> K {
        (self.0)(t)
    }
    fn combine(&self, op: Op, parts: Vec<K>) -> Result<K, QueryError> {
        Ok(match op {
            Op::Sum => semiring::sum(parts),
            // A 0 part annihilates before the others multiply: no
            // partial product outgrows the bounds [`Limits`] checked.
            Op::Prod if parts.iter().any(K::is_zero) => K::zero(),
            Op::Prod => semiring::product(parts),
            Op::Delta => semiring::sum(parts).delta(),
        })
    }
}

/// The symbolic expression, built with [`ProvExpr`]'s smart
/// constructors.
pub struct Symbolic;

impl Circuit for Symbolic {
    type Value = ProvExpr;
    fn token(&self, t: &Token) -> ProvExpr {
        ProvExpr::Tok(t.clone())
    }
    fn combine(&self, op: Op, parts: Vec<ProvExpr>) -> Result<ProvExpr, QueryError> {
        Ok(match op {
            Op::Sum => ProvExpr::sum(parts),
            Op::Prod => ProvExpr::prod(parts),
            Op::Delta => ProvExpr::delta(ProvExpr::sum(parts)),
        })
    }
}

/// Bound on a symbolic answer's size: the nodes of its expression tree,
/// and its expanded N\[X\] polynomial's monomials plus the tokens they
/// multiply — which also bounds its why-witnesses and their tokens.
pub const MAX_SIZE: u64 = 1 << 15;
/// Bound on its expression's nesting depth, which keeps `ProvExpr`'s
/// recursive `Display`, `Polynomial::from_expr` and drop inside a
/// worker's stack.
pub const MAX_DEPTH: u32 = 1 << 9;

/// What a value would expand to: the tree [`Symbolic`] builds (its top
/// operator, node count and nesting depth) and its N\[X\] polynomial,
/// counted with multiplicity and with δ read as the identity: `terms`
/// monomials of total degree `degrees`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    top: Top,
    nodes: u64,
    depth: u32,
    terms: u64,
    degrees: u64,
}

/// A tree's top operator, as `ProvExpr::sum` and `prod` treat a part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Top {
    Zero,
    One,
    Sum,
    Prod,
    Other,
}

/// Measures a symbolic value's [`Shape`] and refuses one past the
/// bounds: [`Limits::Expression`] for `WHY`'s expression and
/// polynomial, [`Limits::Witnesses`] for why-provenance, which builds
/// no tree and so is bounded by [`MAX_SIZE`] on its expansion alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limits {
    /// Expression nodes, nesting depth and the expansion's size.
    Expression,
    /// The expansion's size: monomials and their tokens.
    Witnesses,
}

impl Shape {
    const ZERO: Shape = Shape::leaf(Top::Zero, 0, 0);
    const ONE: Shape = Shape::leaf(Top::One, 1, 0);
    const TOKEN: Shape = Shape::leaf(Top::Other, 1, 1);

    const fn leaf(top: Top, terms: u64, degrees: u64) -> Shape {
        Shape {
            top,
            nodes: 1,
            depth: 1,
            terms,
            degrees,
        }
    }
}

impl Circuit for Limits {
    type Value = Shape;
    fn token(&self, _: &Token) -> Shape {
        Shape::TOKEN
    }
    /// The tree follows `ProvExpr::sum`, `prod` and `delta`: a value
    /// with no monomial is 0, parts equal to the operator's unit drop
    /// out, a lone part is the result, a part with the same operator is
    /// flattened into it, and δ wraps anything but 0. Monomials add
    /// under `+`; under `·` they multiply, and each part's degrees count
    /// once per monomial of the others.
    fn combine(&self, op: Op, parts: Vec<Shape>) -> Result<Shape, QueryError> {
        let (top, unit) = match op {
            Op::Prod => (Top::Prod, Top::One),
            _ => (Top::Sum, Top::Zero),
        };
        let (mut terms, mut degrees) = (u64::from(op == Op::Prod), 0u64);
        for p in &parts {
            (terms, degrees) = match op {
                Op::Prod => (
                    terms.saturating_mul(p.terms),
                    (terms.saturating_mul(p.degrees))
                        .saturating_add(degrees.saturating_mul(p.terms)),
                ),
                _ => (
                    terms.saturating_add(p.terms),
                    degrees.saturating_add(p.degrees),
                ),
            };
        }
        let kept: Vec<Shape> = parts.into_iter().filter(|p| p.top != unit).collect();
        let flat = |p: &Shape| u32::from(p.top == top);
        let mut shape = match kept[..] {
            _ if terms == 0 => Shape::ZERO,
            [] => Shape::ONE,
            [lone] => lone,
            _ => Shape {
                top,
                nodes: kept
                    .iter()
                    .fold(1, |n, p| n.saturating_add(p.nodes - u64::from(flat(p)))),
                depth: 1 + kept.iter().map(|p| p.depth - flat(p)).max().unwrap_or(0),
                terms,
                degrees,
            },
        };
        if op == Op::Delta && terms != 0 {
            shape = Shape {
                top: Top::Other,
                nodes: shape.nodes.saturating_add(1),
                depth: shape.depth + 1,
                ..shape
            };
        }
        let tree = *self == Limits::Expression;
        let too_large = |what, limit| Err(QueryError::TooLarge { what, limit });
        if tree && shape.nodes > MAX_SIZE {
            too_large("expression nodes", MAX_SIZE)
        } else if tree && shape.depth > MAX_DEPTH {
            too_large("levels of nesting", u64::from(MAX_DEPTH))
        } else if terms.saturating_add(degrees) > MAX_SIZE {
            too_large("monomials and tokens in the expanded polynomial", MAX_SIZE)
        } else {
            Ok(shape)
        }
    }
}

/// How often, in steps of a pass, it looks at the deadline.
const DEADLINE_EVERY: usize = 4096;

/// A cone node's entry in [`eval_node`]'s table.
struct Slot<V> {
    /// A leaf's value once it is read; a composite's once its
    /// ingredients are combined.
    value: Option<V>,
    /// Ingredient edges still to read the value; the last one moves it.
    uses: u32,
    read: bool,
}

/// The value of `root`'s provenance in `circuit`, in one iterative pass
/// over its visible cone: it reads each cone node's record and the
/// kinds of its visible ingredients, skipping v-node ingredients, then
/// combines the values in post-order, one per cone node. Fails on a
/// passed deadline (checked every few thousand steps), a value
/// [`Circuit::combine`] refuses, or a malformed cone.
pub fn eval_node<S, C>(
    store: &S,
    root: NodeId,
    circuit: &C,
    ctx: TraceCtx<'_>,
) -> Result<C::Value, QueryError>
where
    S: GraphStore + ?Sized,
    C: Circuit + ?Sized,
{
    let mut steps = 0usize;
    let mut tick = || {
        steps += 1;
        match steps % DEADLINE_EVERY == 1 && ctx.deadline_exceeded() {
            true => Err(QueryError::DeadlineExceeded),
            false => Ok(()),
        }
    };
    let new = || Slot {
        value: None,
        uses: 0,
        read: false,
    };
    let mut cone = HashMap::from([(root, new())]);
    let mut kids = Vec::new();
    // Composites in post-order, each with its ingredients in `kids`.
    let mut order: Vec<(NodeId, Op, Range<usize>)> = Vec::new();
    // Depth first; a composite's second visit carries its ingredients.
    let mut stack = vec![(root, None)];
    while let Some((id, combine)) = stack.pop() {
        tick()?;
        if let Some((op, range)) = combine {
            order.push((id, op, range));
            continue;
        }
        let slot = cone.entry(id).or_insert_with(new);
        if std::mem::replace(&mut slot.read, true) {
            continue;
        }
        let op = match &*store.kind_of(id) {
            NodeKind::Plus => Op::Sum,
            NodeKind::Delta => Op::Delta,
            NodeKind::Times
            | NodeKind::ModuleInput
            | NodeKind::ModuleOutput
            | NodeKind::StateUnit
            | NodeKind::Zoomed { .. }
            | NodeKind::BlackBox { .. } => Op::Prod,
            NodeKind::WorkflowInput { token } | NodeKind::BaseTuple { token } => {
                slot.value = Some(circuit.token(token));
                continue;
            }
            NodeKind::Invocation => {
                let Some(inv) = store.role_of(id).invocation() else {
                    return Err(QueryError::Malformed(
                        id,
                        "is an invocation node that names no invocation",
                    ));
                };
                let info = store.invocation(inv);
                let token = Token::new(format!("⟨{}#{}⟩", info.module, info.execution));
                slot.value = Some(circuit.token(&token));
                continue;
            }
            NodeKind::AggResult { .. } | NodeKind::Tensor | NodeKind::Const { .. } => {
                slot.value = Some(circuit.combine(Op::Prod, Vec::new())?);
                continue;
            }
        };
        let start = kids.len();
        for &p in store.preds_of(id).iter() {
            // Hidden/deleted ingredients no longer contribute, and
            // v-nodes contribute to values rather than to tuple
            // provenance.
            if store.is_visible(p) && !store.kind_of(p).is_value_node() {
                cone.entry(p).or_insert_with(new).uses += 1;
                kids.push(p);
            }
        }
        stack.push((id, Some((op, start..kids.len()))));
        stack.extend(kids[start..].iter().rev().map(|&k| (k, None)));
    }
    // An ingredient's value is missing only if the ingredients cycle
    // back to a node not yet combined.
    let cycle = |id| QueryError::Malformed(id, "lies on an ingredient cycle");
    for (id, op, range) in order {
        tick()?;
        let mut parts = Vec::with_capacity(range.len());
        for &k in &kids[range] {
            let kid = cone.get_mut(&k).ok_or(cycle(k))?;
            kid.uses -= 1;
            let value = match kid.uses {
                0 => kid.value.take(),
                _ => kid.value.clone(),
            };
            parts.push(value.ok_or(cycle(k))?);
        }
        let value = circuit.combine(op, parts)?;
        cone.get_mut(&id).ok_or(cycle(id))?.value = Some(value);
    }
    cone.remove(&root).and_then(|s| s.value).ok_or(cycle(root))
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::time::Instant;

    use lipstick_nrel::Value;
    use proptest::prelude::*;

    use super::*;
    use crate::agg::AggOp;
    use crate::graph::{InvocationId, InvocationInfo, ProvGraph, Role};
    use crate::semiring::boolean::Bools;
    use crate::semiring::eval::{eval_expr, Valuation};
    use crate::semiring::lineage::Lineage;
    use crate::semiring::natural::Natural;
    use crate::semiring::tropical::Tropical;
    use crate::semiring::whyprov::Why;
    use crate::semiring::Polynomial;

    /// The recursive extractor `WHY` and `EVAL` used before the circuit
    /// pass, kept as the oracle: it expands the cone into a tree,
    /// cloning each memoised subtree into every parent.
    fn expr_rec_store<S: GraphStore + ?Sized>(
        store: &S,
        id: NodeId,
        memo: &mut HashMap<NodeId, ProvExpr>,
    ) -> ProvExpr {
        if let Some(e) = memo.get(&id) {
            return e.clone();
        }
        let kind = store.kind_of(id);
        let pred_exprs = |store: &S, memo: &mut HashMap<NodeId, ProvExpr>| {
            store
                .preds_of(id)
                .iter()
                .copied()
                .filter(|p| store.is_visible(*p) && !store.kind_of(*p).is_value_node())
                .map(|p| expr_rec_store(store, p, memo))
                .collect::<Vec<_>>()
        };
        let expr = match &*kind {
            NodeKind::WorkflowInput { token } | NodeKind::BaseTuple { token } => {
                ProvExpr::Tok(token.clone())
            }
            NodeKind::Invocation => {
                let inv = store
                    .role_of(id)
                    .invocation()
                    .expect("invocation node has inv");
                let info = store.invocation(inv);
                ProvExpr::Tok(Token::new(format!("⟨{}#{}⟩", info.module, info.execution)))
            }
            NodeKind::Plus => ProvExpr::sum(pred_exprs(store, memo)),
            NodeKind::Times
            | NodeKind::ModuleInput
            | NodeKind::ModuleOutput
            | NodeKind::StateUnit
            | NodeKind::Zoomed { .. }
            | NodeKind::BlackBox { .. } => ProvExpr::prod(pred_exprs(store, memo)),
            NodeKind::Delta => ProvExpr::delta(ProvExpr::sum(pred_exprs(store, memo))),
            NodeKind::AggResult { .. } | NodeKind::Tensor | NodeKind::Const { .. } => ProvExpr::One,
        };
        memo.insert(id, expr.clone());
        expr
    }

    /// The old `EVAL` path: extract, then evaluate the tree under a
    /// per-statement valuation of the tokens it mentions.
    fn old_eval<K: Semiring>(e: &ProvExpr, default: K, leaf: impl Fn(&Token) -> K) -> K {
        let tokens = e.tokens();
        let mut v = Valuation::with_default(default);
        for t in &tokens {
            v = v.set(t.as_str(), leaf(t));
        }
        eval_expr(e, &v)
    }

    fn depth(e: &ProvExpr) -> u32 {
        match e {
            ProvExpr::Sum(v) | ProvExpr::Prod(v) => 1 + v.iter().map(depth).max().unwrap_or(0),
            ProvExpr::Delta(inner) => 1 + depth(inner),
            _ => 1,
        }
    }

    /// Monomials and their total degree, with multiplicity and δ read
    /// as the identity: the expansion counted term by term.
    fn terms(e: &ProvExpr) -> (u64, u64) {
        match e {
            ProvExpr::Zero => (0, 0),
            ProvExpr::One => (1, 0),
            ProvExpr::Tok(_) => (1, 1),
            ProvExpr::Sum(v) => v
                .iter()
                .map(terms)
                .fold((0, 0), |(t, d), (pt, pd)| (t + pt, d + pd)),
            ProvExpr::Prod(v) => v
                .iter()
                .map(terms)
                .fold((1, 0), |(t, d), (pt, pd)| (t * pt, t * pd + d * pt)),
            ProvExpr::Delta(inner) => terms(inner),
        }
    }

    /// A store that records every node whose record is read — what a
    /// paged store would fault in.
    struct Recording<'a> {
        graph: &'a ProvGraph,
        read: RefCell<BTreeSet<NodeId>>,
    }

    impl Recording<'_> {
        fn take(&self) -> BTreeSet<NodeId> {
            std::mem::take(&mut self.read.borrow_mut())
        }
    }

    impl GraphStore for Recording<'_> {
        fn node_count(&self) -> usize {
            self.graph.len()
        }
        fn is_visible(&self, id: NodeId) -> bool {
            self.graph.is_visible(id)
        }
        fn visible_count(&self) -> usize {
            self.graph.visible_count()
        }
        fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
            self.read.borrow_mut().insert(id);
            self.graph.kind_of(id)
        }
        fn role_of(&self, id: NodeId) -> Role {
            self.read.borrow_mut().insert(id);
            self.graph.role_of(id)
        }
        fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
            self.read.borrow_mut().insert(id);
            self.graph.preds_of(id)
        }
        fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
            self.graph.succs_of(id)
        }
        fn invocations(&self) -> &[InvocationInfo] {
            self.graph.invocations()
        }
        fn module_postings(&self, module: &str) -> Cow<'_, [NodeId]> {
            self.graph.module_postings(module)
        }
        fn kind_postings(&self, kind: &str) -> Cow<'_, [NodeId]> {
            self.graph.kind_postings(kind)
        }
    }

    /// A heavily shared DAG over every node kind: each node draws up to
    /// four ingredients (repeats allowed) among the earlier nodes, some
    /// nodes are hidden, and v-nodes appear as ingredients.
    fn build(specs: &[(u8, Vec<usize>, u8)]) -> ProvGraph {
        let mut g = ProvGraph::new();
        for (i, (kind, picks, hidden)) in specs.iter().enumerate() {
            let n = g.len();
            let token = Token::new(format!("t{}", i % 7));
            let id = match kind {
                0 => g.add_node(NodeKind::WorkflowInput { token }, Role::WorkflowInput),
                1 => g.add_node(NodeKind::BaseTuple { token }, Role::Free),
                2 => g.add_invocation(&format!("M{}", i % 3), i as u32).1,
                3 => g.add_node(NodeKind::ModuleInput, Role::ModuleInput(InvocationId(0))),
                4 => g.add_node(NodeKind::ModuleOutput, Role::Free),
                5 => g.add_node(NodeKind::StateUnit, Role::Free),
                6 => g.add_node(NodeKind::Delta, Role::Free),
                7 => g.add_node(NodeKind::AggResult { op: AggOp::Count }, Role::Free),
                8 => g.add_node(NodeKind::Tensor, Role::Free),
                9 => g.add_node(
                    NodeKind::Const {
                        value: Value::Int(1),
                    },
                    Role::Free,
                ),
                10 => g.add_node(NodeKind::Zoomed { stash: 0 }, Role::Free),
                11 => {
                    let kind = NodeKind::BlackBox {
                        name: "udf".into(),
                        is_value: i % 2 == 0,
                    };
                    g.add_node(kind, Role::Free)
                }
                12..=17 => g.add_node(NodeKind::Plus, Role::Free),
                _ => g.add_node(NodeKind::Times, Role::Free),
            };
            // Half the picks fall among the last few nodes, which
            // shares sub-derivations heavily.
            for &p in picks.iter().filter(|_| n > 0) {
                let p = if p < 64 { n - 1 - p % n.min(4) } else { p % n };
                g.add_edge(NodeId(p as u32), id);
            }
            if *hidden == 0 {
                g.set_node_deleted(id, true);
            }
        }
        g
    }

    fn arb_graph() -> impl Strategy<Value = ProvGraph> {
        let node = (0u8..24, prop::collection::vec(0usize..128, 0..5), 0u8..10);
        prop::collection::vec(node, 1..28).prop_map(|specs| build(&specs))
    }

    fn eval<C: Circuit>(g: &ProvGraph, root: NodeId, circuit: &C) -> C::Value {
        eval_node(g, root, circuit, TraceCtx::disabled()).expect("well-formed cone")
    }

    proptest! {
        /// The circuit pass agrees with extract-then-evaluate on every
        /// node: the same expression (so `WHY`'s text is byte-identical),
        /// the same value in all five semirings, the same records read,
        /// and a `Shape` that measures the expression exactly.
        #[test]
        fn circuit_pass_matches_the_expanding_oracle(g in arb_graph()) {
            let store = Recording { graph: &g, read: RefCell::new(BTreeSet::new()) };
            for (root, _) in g.iter() {
                let shape = match eval_node(&store, root, &Limits::Expression, TraceCtx::disabled()) {
                    Ok(shape) => shape,
                    Err(e) => {
                        prop_assert!(matches!(e, QueryError::TooLarge { .. }), "{e}");
                        store.take();
                        continue;
                    }
                };
                let read = store.take();
                let witnesses = eval_node(&g, root, &Limits::Witnesses, TraceCtx::disabled());
                prop_assert_eq!(witnesses, Ok(shape));
                let expr = eval_node(&store, root, &Symbolic, TraceCtx::disabled()).unwrap();
                prop_assert_eq!(&store.take(), &read);
                let old = expr_rec_store(&store, root, &mut HashMap::new());
                prop_assert_eq!(&store.take(), &read, "records read at {}", root);
                prop_assert_eq!(&expr, &old);
                prop_assert_eq!(expr.to_string(), old.to_string());
                prop_assert_eq!(
                    (shape.nodes, shape.depth, (shape.terms, shape.degrees)),
                    (old.size() as u64, depth(&old), terms(&old))
                );

                let ones = |_: &Token| Natural(1);
                prop_assert_eq!(eval(&g, root, &Valued(ones)), old_eval(&old, Natural(1), ones));
                let present = |_: &Token| Bools(true);
                prop_assert_eq!(eval(&g, root, &Valued(present)), old_eval(&old, Bools(true), present));
                let unit = |_: &Token| Tropical(1.0);
                prop_assert_eq!(eval(&g, root, &Valued(unit)), old_eval(&old, Tropical(1.0), unit));
                let lineage = |t: &Token| Lineage::token(t.clone());
                prop_assert_eq!(
                    eval(&g, root, &Valued(lineage)),
                    old_eval(&old, Lineage::one(), lineage)
                );
                let why = |t: &Token| Why::token(t.clone());
                prop_assert_eq!(eval(&g, root, &Valued(why)), old_eval(&old, Why::one(), why));
                if let Some(poly) = Polynomial::from_expr(&old) {
                    let circuit = Valued(|t: &Token| Polynomial::token(t.clone()));
                    prop_assert_eq!(eval(&g, root, &circuit), poly);
                }
            }
        }
    }

    /// `x₀ = a`, `xᵢ = xᵢ₋₁·aᵢ + xᵢ₋₁·bᵢ`: 2ⁱ derivations over a cone
    /// of 5i + 1 nodes.
    fn diamond_chain(levels: usize) -> (ProvGraph, NodeId) {
        let mut g = ProvGraph::new();
        let mut x = g.add_base("a");
        for i in 0..levels {
            let a = g.add_base(&format!("a{i}"));
            let b = g.add_base(&format!("b{i}"));
            let xa = g.add_times(&[x, a]);
            let xb = g.add_times(&[x, b]);
            x = g.add_plus(&[xa, xb]);
        }
        (g, x)
    }

    #[test]
    fn shared_cones_evaluate_without_expansion() {
        let (g, x) = diamond_chain(70);
        assert_eq!(
            eval(&g, x, &Valued(|_: &Token| Natural(1))),
            Natural(u64::MAX)
        );
        assert_eq!(eval(&g, x, &Valued(|_: &Token| Bools(true))), Bools(true));
        assert_eq!(
            eval(&g, x, &Valued(|_: &Token| Tropical(1.0))),
            Tropical(71.0)
        );
        for limits in [Limits::Expression, Limits::Witnesses] {
            let err = eval_node(&g, x, &limits, TraceCtx::disabled()).unwrap_err();
            assert!(matches!(err, QueryError::TooLarge { .. }), "{err}");
        }
    }

    #[test]
    fn a_passed_deadline_cancels_the_pass() {
        let (g, x) = diamond_chain(3);
        let ctx = TraceCtx::disabled().with_deadline(Some(Instant::now()));
        let err = eval_node(&g, x, &Valued(|_: &Token| Natural(1)), ctx).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
    }

    #[test]
    fn an_invocation_node_naming_no_invocation_is_malformed() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let m = g.add_node(NodeKind::Invocation, Role::Free);
        let t = g.add_times(&[a, m]);
        let err = eval_node(&g, t, &Symbolic, TraceCtx::disabled()).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("node {m} is an invocation node that names no invocation")
        );
    }

    #[test]
    #[should_panic(expected = "is an invocation node that names no invocation")]
    fn expr_of_panics_on_a_malformed_cone() {
        let mut g = ProvGraph::new();
        let m = g.add_node(NodeKind::Invocation, Role::Free);
        g.expr_of(m);
    }

    #[test]
    fn an_ingredient_cycle_is_malformed() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p = g.add_plus(&[a]);
        let q = g.add_times(&[p]);
        g.add_edge(q, p);
        let err = eval_node(&g, q, &Symbolic, TraceCtx::disabled()).unwrap_err();
        assert!(matches!(err, QueryError::Malformed(_, _)), "{err}");
    }
}
