//! The [`GraphStore`] abstraction: "resident graph" vs. "paged log".
//!
//! [`ProvGraph`] holds every node in memory; a paged provenance log
//! (see `lipstick-storage`) keeps records on disk and faults them in on
//! demand. Queries that only touch a neighbourhood — module-filtered
//! `MATCH`, `WHY`, bounded traversals, dependency tests — should not
//! care which backing they run against, so this module defines the
//! common read-only interface plus store-generic implementations of the
//! traversal primitives the ProQL executor composes.
//!
//! Accessors return *owned* data (a paged store decodes records into
//! temporaries; it cannot hand out references into an arena it does not
//! have). The resident implementation clones adjacency lists, which is
//! fine for the per-query paths that use this trait; the hot resident
//! executor keeps using [`ProvGraph`]'s borrowing API directly.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::graph::bitset::BitSet;
use crate::graph::{InvocationId, InvocationInfo, NodeId, NodeKind, ProvGraph, Role};
use crate::query::error::QueryError;
use crate::query::subgraph::{Direction, SubgraphResult, TraversalStats};
use crate::semiring::{ProvExpr, Token};

/// Read-only access to a provenance graph, resident or paged.
///
/// Implementations must agree with [`ProvGraph`]'s semantics: ids are
/// dense `0..node_count`, `preds`/`succs` may include invisible
/// neighbours (callers filter), and the invocation table is small
/// enough to keep resident.
pub trait GraphStore {
    /// Number of allocated nodes (including tombstones).
    fn node_count(&self) -> usize;

    /// Is the node part of the visible graph? Must not require decoding
    /// the node's record on paged stores (visibility is index-level).
    fn is_visible(&self, id: NodeId) -> bool;

    /// Number of visible nodes — the full-scan cost unit of planners
    /// and lints. Index-level like [`GraphStore::is_visible`]; stores
    /// that keep a count or a bitmap answer without this sweep.
    fn visible_count(&self) -> usize {
        (0..self.node_count())
            .filter(|&i| self.is_visible(NodeId(i as u32)))
            .count()
    }

    /// The node's kind. May fault in the node's record.
    fn kind_of(&self, id: NodeId) -> NodeKind;

    /// The node's role. May fault in the node's record.
    fn role_of(&self, id: NodeId) -> Role;

    /// Ingredient ids (may include invisible nodes). May fault in the
    /// node's record.
    fn preds_of(&self, id: NodeId) -> Vec<NodeId>;

    /// Dependent ids (may include invisible nodes). Index-level on
    /// paged stores: must not require decoding the node's record.
    fn succs_of(&self, id: NodeId) -> Vec<NodeId>;

    /// The invocation table (always resident).
    fn invocations(&self) -> &[InvocationInfo];

    /// Invocation metadata.
    fn invocation(&self, id: InvocationId) -> &InvocationInfo {
        &self.invocations()[id.index()]
    }

    /// Ids of all invocations of the given module.
    fn invocations_of(&self, module: &str) -> Vec<InvocationId> {
        self.invocations()
            .iter()
            .enumerate()
            .filter(|(_, info)| info.module == module)
            .map(|(i, _)| InvocationId(i as u32))
            .collect()
    }

    /// Cumulative count of node records decoded so far (0 for resident
    /// stores, where nothing is ever faulted).
    fn records_read(&self) -> usize {
        0
    }

    /// Visible node ids owned by the module's invocations, if the store
    /// maintains postings for them (`None` = not indexed; scan instead).
    fn module_postings(&self, _module: &str) -> Option<Vec<NodeId>> {
        None
    }

    /// Visible node ids of the given kind name (see [`NodeKind::name`]),
    /// if the store maintains postings for them.
    fn kind_postings(&self, _kind: &str) -> Option<Vec<NodeId>> {
        None
    }

    /// Named heap components of the store itself (the
    /// [`crate::obs::HeapSize`] breakdown, surfaced through the trait so
    /// store-generic code — the `STATS` memory section — works on any
    /// backend). Empty when the store does not account its memory.
    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }
}

impl GraphStore for ProvGraph {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn is_visible(&self, id: NodeId) -> bool {
        self.node(id).is_visible()
    }

    fn visible_count(&self) -> usize {
        ProvGraph::visible_count(self)
    }

    fn kind_of(&self, id: NodeId) -> NodeKind {
        self.node(id).kind.clone()
    }

    fn role_of(&self, id: NodeId) -> Role {
        self.node(id).role
    }

    fn preds_of(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id).preds().to_vec()
    }

    fn succs_of(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id).succs().to_vec()
    }

    fn invocations(&self) -> &[InvocationInfo] {
        ProvGraph::invocations(self)
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        crate::obs::HeapSize::heap_breakdown(self)
    }
}

/// Store-generic breadth-first sweep from `root`, at most `depth` edges
/// deep (`None` = unbounded). Mirrors
/// [`crate::query::subgraph::traverse`]: every visible node reached is
/// visited and counted; only those passing `collect` are returned; the
/// root is visited but never collected. The callback receives only the
/// id — querying the store for kind/role is what makes a paged walk
/// fault records *only* when the filter needs them.
pub fn traverse_store<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
    direction: Direction,
    depth: Option<u32>,
    mut collect: impl FnMut(NodeId) -> bool,
) -> Result<(Vec<NodeId>, TraversalStats), QueryError> {
    if !store.is_visible(root) {
        return Err(QueryError::NodeNotVisible(root));
    }
    let mut seen = BitSet::new(store.node_count());
    seen.insert(root.index());
    let mut out = Vec::new();
    let mut stats = TraversalStats { visited: 1 };
    let mut queue: VecDeque<(NodeId, u32)> = VecDeque::new();
    queue.push_back((root, 0));
    while let Some((v, d)) = queue.pop_front() {
        if let Some(limit) = depth {
            if d >= limit {
                continue;
            }
        }
        let next = match direction {
            Direction::Ancestors => store.preds_of(v),
            Direction::Descendants => store.succs_of(v),
        };
        for n in next {
            if store.is_visible(n) && seen.insert(n.index()) {
                stats.visited += 1;
                if collect(n) {
                    out.push(n);
                }
                queue.push_back((n, d + 1));
            }
        }
    }
    out.sort();
    Ok((out, stats))
}

/// Store-generic subgraph query (paper §5.1): ancestors, descendants,
/// and siblings of descendants. Agrees with
/// [`crate::query::subgraph::subgraph`] node-for-node.
pub fn subgraph_store<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
) -> Result<SubgraphResult, QueryError> {
    if !store.is_visible(root) {
        return Err(QueryError::NodeNotVisible(root));
    }
    let mut members = BitSet::new(store.node_count());
    members.insert(root.index());

    let (ancestors, _) = traverse_store(store, root, Direction::Ancestors, None, |_| true)?;
    let (descendants, _) = traverse_store(store, root, Direction::Descendants, None, |_| true)?;
    for id in ancestors.iter().chain(descendants.iter()) {
        members.insert(id.index());
    }
    // Siblings of descendants: other successors of each descendant's
    // visible predecessors.
    for d in &descendants {
        for p in store.preds_of(*d) {
            if !store.is_visible(p) {
                continue;
            }
            for sib in store.succs_of(p) {
                if store.is_visible(sib) {
                    members.insert(sib.index());
                }
            }
        }
    }
    Ok(SubgraphResult {
        nodes: members.iter().map(|i| NodeId(i as u32)).collect(),
        ancestor_count: ancestors.len(),
        descendant_count: descendants.len(),
    })
}

/// Store-generic deletion-propagation set (Definition 4.2), without
/// mutating anything: which nodes die if `root` is deleted? Only the
/// descendants the propagation actually examines are faulted in.
pub fn compute_deletion_store<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
) -> Result<Vec<NodeId>, QueryError> {
    if !store.is_visible(root) {
        return Err(QueryError::NodeNotVisible(root));
    }
    let mut deleted = BitSet::new(store.node_count());
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue: Vec<NodeId> = vec![root];
    deleted.insert(root.index());
    while let Some(v) = queue.pop() {
        order.push(v);
        for s in store.succs_of(v) {
            if !store.is_visible(s) || deleted.contains(s.index()) {
                continue;
            }
            let dies = if store.kind_of(s).is_joint() {
                true
            } else {
                store
                    .preds_of(s)
                    .iter()
                    .filter(|p| store.is_visible(**p))
                    .all(|p| deleted.contains(p.index()))
            };
            if dies {
                deleted.insert(s.index());
                queue.push(s);
            }
        }
    }
    Ok(order)
}

/// Store-generic dependency test (§4.3): does the existence of `n`
/// depend on `n_prime`? Agrees with [`crate::query::depends_on`].
pub fn depends_on_store<S: GraphStore + ?Sized>(
    store: &S,
    n: NodeId,
    n_prime: NodeId,
) -> Result<bool, QueryError> {
    if !store.is_visible(n) {
        return Err(QueryError::NodeNotVisible(n));
    }
    let deleted = compute_deletion_store(store, n_prime)?;
    Ok(deleted.contains(&n))
}

/// Store-generic provenance-expression extraction: the symbolic
/// expression rooted at a p-node, following only visible p-node
/// ingredients. Agrees with [`ProvGraph::expr_of`] (which delegates
/// here).
pub fn expr_of_store<S: GraphStore + ?Sized>(store: &S, id: NodeId) -> ProvExpr {
    let mut memo: HashMap<NodeId, ProvExpr> = HashMap::new();
    expr_rec_store(store, id, &mut memo)
}

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
            .into_iter()
            .filter(|p| {
                // Hidden/deleted ingredients no longer contribute, and
                // v-nodes contribute to values rather than to tuple
                // provenance.
                store.is_visible(*p) && !store.kind_of(*p).is_value_node()
            })
            .map(|p| expr_rec_store(store, p, memo))
            .collect::<Vec<_>>()
    };
    let expr = match &kind {
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
        // v-nodes have no tuple provenance of their own.
        NodeKind::AggResult { .. } | NodeKind::Tensor | NodeKind::Const { .. } => ProvExpr::One,
    };
    memo.insert(id, expr.clone());
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ancestors_bounded, depends_on, descendants_bounded, subgraph, Direction};

    fn sample() -> ProvGraph {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let c = g.add_base("c");
        let t = g.add_times(&[a, b]);
        let p = g.add_plus(&[t, c]);
        let d = g.add_delta(&[p]);
        g.add_plus(&[d]);
        g
    }

    #[test]
    fn traverse_store_matches_resident_traversals() {
        let g = sample();
        for (id, _) in g.iter_visible() {
            for depth in [None, Some(1), Some(2)] {
                let resident = descendants_bounded(&g, id, depth).unwrap();
                let (nodes, stats) =
                    traverse_store(&g, id, Direction::Descendants, depth, |_| true).unwrap();
                assert_eq!(nodes, resident.nodes, "descendants of {id}");
                assert_eq!(stats, resident.stats);
                let resident = ancestors_bounded(&g, id, depth).unwrap();
                let (nodes, _) =
                    traverse_store(&g, id, Direction::Ancestors, depth, |_| true).unwrap();
                assert_eq!(nodes, resident.nodes, "ancestors of {id}");
            }
        }
    }

    #[test]
    fn subgraph_store_matches_resident() {
        let g = sample();
        for (id, _) in g.iter_visible() {
            let resident = subgraph(&g, id).unwrap();
            let generic = subgraph_store(&g, id).unwrap();
            assert_eq!(generic, resident, "subgraph of {id}");
        }
    }

    #[test]
    fn depends_on_store_matches_resident() {
        let g = sample();
        let ids: Vec<NodeId> = g.iter_visible().map(|(id, _)| id).collect();
        for &n in &ids {
            for &m in &ids {
                assert_eq!(
                    depends_on_store(&g, n, m).unwrap(),
                    depends_on(&g, n, m).unwrap(),
                    "depends({n}, {m})"
                );
            }
        }
    }

    #[test]
    fn expr_of_store_matches_resident() {
        let g = sample();
        for (id, n) in g.iter_visible() {
            if !n.kind.is_value_node() {
                assert_eq!(expr_of_store(&g, id).to_string(), g.expr_of(id).to_string());
            }
        }
    }

    #[test]
    fn traversal_on_invisible_root_errors() {
        let mut g = sample();
        let root = NodeId(0);
        g.set_node_deleted(root, true);
        assert!(traverse_store(&g, root, Direction::Descendants, None, |_| true).is_err());
        assert!(subgraph_store(&g, root).is_err());
        assert!(compute_deletion_store(&g, root).is_err());
    }
}
