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
//!   a `Semiring`: its structural `Eq` breaks the laws). `WHY` runs the
//!   same constructors in shared form ([`shared_lines`]): a composite
//!   the cone reads twice or more, or one too deep to inline, gets a
//!   line of its own, so the answer is the circuit, not its expansion;
//! - [`Shape`], through [`Limits`], which measures a value's expanded
//!   polynomial and refuses one past [`MAX_SIZE`]: a pass in `Limits`
//!   before the N\[X\] or why-provenance pass keeps a refusal at one
//!   pass over the cone.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
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
    /// Node `id`'s combined value, before the `reads` ingredient edges
    /// of the cone that read it do: kept as it is, unless the algebra
    /// names shared values.
    fn node(&self, _id: NodeId, _reads: u32, value: Self::Value) -> Self::Value {
        value
    }
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

/// Bound on a symbolic answer's size: its expanded N\[X\] polynomial's
/// monomials plus the tokens they multiply — which also bounds its
/// why-witnesses and their tokens.
pub const MAX_SIZE: u64 = 1 << 15;
/// Bound on how deep one line of a `WHY` answer nests, which keeps
/// `ProvExpr`'s recursive `Display` and drop inside a worker's stack. A
/// deeper value is split into lines ([`shared_lines`]).
pub const MAX_DEPTH: u32 = 1 << 9;

/// What a value expands to, `Shape(terms, degrees)`: its N\[X\]
/// polynomial, counted with multiplicity and with δ read as the
/// identity, has `terms` monomials of total degree `degrees`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape(u64, u64);

/// Measures a value's [`Shape`] and refuses one past [`MAX_SIZE`]: the
/// bound on `WHY`'s expanded N\[X\] line and on why-provenance.
pub struct Limits;

impl Circuit for Limits {
    type Value = Shape;
    fn token(&self, _: &Token) -> Shape {
        Shape(1, 1)
    }
    /// Monomials add under `+`; under `·` they multiply, and each part's
    /// degrees count once per monomial of the others.
    fn combine(&self, op: Op, parts: Vec<Shape>) -> Result<Shape, QueryError> {
        let (mut terms, mut degrees) = (u64::from(op == Op::Prod), 0u64);
        for Shape(t, d) in parts {
            (terms, degrees) = match op {
                Op::Prod => (
                    terms.saturating_mul(t),
                    (terms.saturating_mul(d)).saturating_add(degrees.saturating_mul(t)),
                ),
                _ => (terms.saturating_add(t), degrees.saturating_add(d)),
            };
        }
        match terms.saturating_add(degrees) > MAX_SIZE {
            true => Err(QueryError::TooLarge { limit: MAX_SIZE }),
            false => Ok(Shape(terms, degrees)),
        }
    }
}

/// A [`Shared`] value: its expression, a bound on how deep that nests
/// (exact once measured), and the cone node it is the value of.
#[derive(Clone)]
struct Part {
    expr: ProvExpr,
    depth: u32,
    node: Option<NodeId>,
}

/// [`Symbolic`] in shared form. A composite node whose value is not a
/// leaf is *named* when the cone reads it twice or more, or when
/// inlining it would nest its reader deeper than [`MAX_DEPTH`]: its
/// expression moves to a line of its own, and its readers read the
/// reference `#id`, a leaf, instead.
#[derive(Default)]
struct Shared(RefCell<BTreeMap<NodeId, ProvExpr>>);

impl Shared {
    fn name(&self, part: &mut Part) {
        let leaf = matches!(part.expr, ProvExpr::Zero | ProvExpr::One | ProvExpr::Tok(_));
        if let (Some(id), false) = (part.node, leaf) {
            let reference = ProvExpr::Tok(Token::new(format!("#{}", id.0)));
            let expr = std::mem::replace(&mut part.expr, reference);
            self.0.borrow_mut().insert(id, expr);
            part.depth = 1;
        }
    }
}

impl Circuit for Shared {
    type Value = Part;
    fn token(&self, t: &Token) -> Part {
        let (expr, depth, node) = (Symbolic.token(t), 1, None);
        Part { expr, depth, node }
    }
    /// Built by [`Symbolic`]. A built value nests at most two levels
    /// above its deepest part (δ of a sum), so only past that bound is
    /// it built from copies and measured; while it is too deep, its
    /// deepest parts are named.
    fn combine(&self, op: Op, mut parts: Vec<Part>) -> Result<Part, QueryError> {
        let build = |p: Vec<Part>| Symbolic.combine(op, p.into_iter().map(|p| p.expr).collect());
        let (depth, node) = (2 + parts.iter().map(|p| p.depth).max().unwrap_or(0), None);
        if depth <= MAX_DEPTH {
            let expr = build(parts)?;
            return Ok(Part { expr, depth, node });
        }
        parts.iter_mut().for_each(|p| p.depth = p.expr.depth());
        loop {
            let expr = build(parts.clone())?;
            let depth = expr.depth();
            let deepest = parts.iter().filter_map(|p| p.node.map(|_| p.depth)).max();
            let Some(d) = deepest.filter(|&d| d > 1 && depth > MAX_DEPTH) else {
                return Ok(Part { expr, depth, node });
            };
            for p in parts.iter_mut().filter(|p| p.depth == d) {
                self.name(p);
            }
        }
    }
    fn node(&self, id: NodeId, reads: u32, mut value: Part) -> Part {
        value.node = Some(id);
        if reads > 1 {
            self.name(&mut value);
        }
        value
    }
}

/// `root`'s provenance in shared form, one line per entry: the root's
/// expression, then each named node's in ascending id order, where
/// `#id` stands for node `id`'s line. A composite is named when the
/// cone reads it twice or more, or when inlining it would nest its
/// reader deeper than [`MAX_DEPTH`]. One pass in
/// [`Symbolic`]'s constructors, and no line nests deeper than
/// [`MAX_DEPTH`]; a cone that reads no composite twice and nests no
/// deeper than that is one line, its expression.
pub fn shared_lines<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
    ctx: TraceCtx<'_>,
) -> Result<Vec<(NodeId, ProvExpr)>, QueryError> {
    let shared = Shared::default();
    let root = (root, eval_node(store, root, &shared, ctx)?.expr);
    Ok(std::iter::once(root).chain(shared.0.into_inner()).collect())
}

/// How often, in steps of the walk over the cone, it looks at the
/// deadline.
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
/// combines the values in post-order, one per cone node, handing each
/// composite's to [`Circuit::node`] with its read count. Fails on a
/// passed deadline (checked every few thousand steps of the walk and
/// after every combine), a value
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
        // A combine may be slow (a long N[X] sum), so the deadline is
        // looked at after each one, not every few thousand steps.
        if ctx.deadline_exceeded() {
            return Err(QueryError::DeadlineExceeded);
        }
        let slot = cone.get_mut(&id).ok_or(cycle(id))?;
        slot.value = Some(circuit.node(id, slot.uses, value));
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

    /// How often the visible cone of `root` reads each of its nodes:
    /// the ingredient edges of its composites, v-node ingredients
    /// skipped.
    fn reads(g: &ProvGraph, root: NodeId) -> HashMap<NodeId, u32> {
        let (mut reads, mut stack) = (HashMap::from([(root, 0)]), vec![root]);
        while let Some(id) = stack.pop() {
            let composite = matches!(
                g.kind_of(id).as_ref(),
                NodeKind::Plus
                    | NodeKind::Delta
                    | NodeKind::Times
                    | NodeKind::ModuleInput
                    | NodeKind::ModuleOutput
                    | NodeKind::StateUnit
                    | NodeKind::Zoomed { .. }
                    | NodeKind::BlackBox { .. }
            );
            for &p in g.preds_of(id).iter().filter(|_| composite) {
                if g.is_visible(p) && !g.kind_of(p).is_value_node() {
                    let n = reads.entry(p).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        stack.push(p);
                    }
                }
            }
        }
        reads
    }

    /// A shared-form line with every reference replaced by its line,
    /// through the smart constructors.
    fn unfold(e: &ProvExpr, named: &BTreeMap<NodeId, ProvExpr>) -> ProvExpr {
        let id = |t: &Token| t.as_str().strip_prefix('#')?.parse().ok().map(NodeId);
        match e {
            ProvExpr::Tok(t) => match id(t).and_then(|id| named.get(&id)) {
                Some(line) => unfold(line, named),
                None => e.clone(),
            },
            ProvExpr::Sum(v) => ProvExpr::sum(v.iter().map(|p| unfold(p, named))),
            ProvExpr::Prod(v) => ProvExpr::prod(v.iter().map(|p| unfold(p, named))),
            ProvExpr::Delta(p) => ProvExpr::delta(unfold(p, named)),
            leaf => leaf.clone(),
        }
    }

    proptest! {
        /// The circuit pass agrees with extract-then-evaluate on every
        /// node: the same expression, the same value in all five
        /// semirings, the same records read, and a `Shape` that counts
        /// the expansion exactly. `WHY`'s shared form reads the same
        /// records and unfolds to the same expression; it names only
        /// composites read twice or more, and a cone that reads none
        /// twice is the expression alone.
        #[test]
        fn circuit_pass_matches_the_expanding_oracle(g in arb_graph()) {
            let store = Recording { graph: &g, read: RefCell::new(BTreeSet::new()) };
            for (root, _) in g.iter() {
                let expr = eval_node(&store, root, &Symbolic, TraceCtx::disabled()).unwrap();
                let read = store.take();
                let lines = shared_lines(&store, root, TraceCtx::disabled()).unwrap();
                prop_assert_eq!(&store.take(), &read);
                let reads = reads(&g, root);
                for (id, line) in &lines[1..] {
                    let split = line.depth() + 2 > MAX_DEPTH;
                    prop_assert!(reads[id] >= 2 || split, "{} named with {} read(s)", id, reads[id]);
                    prop_assert!(!matches!(line, ProvExpr::Zero | ProvExpr::One | ProvExpr::Tok(_)));
                }
                if reads.values().all(|&n| n < 2) {
                    prop_assert_eq!(&lines, &vec![(root, expr.clone())]);
                }
                // Every composite read twice is named, or passes a named
                // node's value through and reads as its reference.
                let named: BTreeMap<_, _> = lines[1..].iter().cloned().collect();
                let bounded = |id| eval_node(&g, id, &Limits, TraceCtx::disabled()).is_ok();
                let full: Vec<_> = named.keys().filter(|&&id| bounded(id)).map(|&id| eval(&g, id, &Symbolic)).collect();
                for (&id, &n) in reads.iter().filter(|&(&id, &n)| n >= 2 && bounded(id)) {
                    let value = eval(&g, id, &Symbolic);
                    let leaf = matches!(value, ProvExpr::Zero | ProvExpr::One | ProvExpr::Tok(_));
                    prop_assert!(leaf || named.contains_key(&id) || full.contains(&value), "{} read {} times", id, n);
                }
                let shape = match eval_node(&g, root, &Limits, TraceCtx::disabled()) {
                    Ok(shape) => shape,
                    Err(e) => {
                        prop_assert_eq!(e, QueryError::TooLarge { limit: MAX_SIZE });
                        continue;
                    }
                };
                prop_assert_eq!(&unfold(&lines[0].1, &named), &expr);
                let old = expr_rec_store(&store, root, &mut HashMap::new());
                prop_assert_eq!(&store.take(), &read, "records read at {}", root);
                prop_assert_eq!(&expr, &old);
                prop_assert_eq!(expr.to_string(), old.to_string());
                prop_assert_eq!((shape.0, shape.1), terms(&old));

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
                // `WHY` prints the N[X] line when no line holds δ.
                let delta = lines.iter().any(|(_, l)| l.to_string().contains('δ'));
                match Polynomial::from_expr(&old) {
                    Some(poly) => {
                        let circuit = Valued(|t: &Token| Polynomial::token(t.clone()));
                        prop_assert_eq!(eval(&g, root, &circuit), poly);
                    }
                    None => prop_assert!(delta),
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
        let err = eval_node(&g, x, &Limits, TraceCtx::disabled()).unwrap_err();
        assert_eq!(err, QueryError::TooLarge { limit: MAX_SIZE });
        // The shared form names x₁…x₆₉, each read by both products.
        let lines = shared_lines(&g, x, TraceCtx::disabled()).unwrap();
        assert_eq!(lines.len(), 70);
        let x1 = NodeId(x.0 - 5 * 69);
        assert_eq!(lines[1].1.to_string(), "a·a0 + a·b0");
        assert_eq!(
            lines[2].1.to_string(),
            format!("#{}·a1 + #{}·b1", x1.0, x1.0)
        );
    }

    #[test]
    fn a_passed_deadline_cancels_the_pass() {
        let (g, x) = diamond_chain(3);
        let ctx = TraceCtx::disabled().with_deadline(Some(Instant::now()));
        let err = eval_node(&g, x, &Valued(|_: &Token| Natural(1)), ctx).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
    }

    /// Takes about a millisecond per combine and notes when each
    /// began.
    struct Slow(RefCell<Vec<Instant>>);

    impl Circuit for Slow {
        type Value = ();
        fn token(&self, _: &Token) {}
        fn combine(&self, _: Op, _: Vec<()>) -> Result<(), QueryError> {
            self.0.borrow_mut().push(Instant::now());
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(())
        }
    }

    #[test]
    fn slow_combines_stop_at_the_deadline() {
        // 210 composites, far fewer steps than a deadline check's period.
        let (g, x) = diamond_chain(70);
        let deadline = Instant::now() + std::time::Duration::from_millis(10);
        let slow = Slow(RefCell::new(Vec::new()));
        let ctx = TraceCtx::disabled().with_deadline(Some(deadline));
        let err = eval_node(&g, x, &slow, ctx).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
        let begun = slow.0.into_inner();
        let late = begun.iter().filter(|&&at| at >= deadline).count();
        assert!(
            late <= 2,
            "{late} of {} combines began past the deadline",
            begun.len()
        );
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
