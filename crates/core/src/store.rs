//! The [`GraphStore`] abstraction: one read interface over every backing.
//!
//! [`ProvGraph`] holds every node in memory; a paged provenance log
//! (see `lipstick-storage`) keeps records on disk and faults them in on
//! demand; an append log layers a mutable tail over a sealed one. The
//! query primitives in [`crate::query`] — traversal, subgraph, deletion
//! propagation, dependency tests, the reach index — and ProQL's planner
//! and read executor are written once against this trait and run
//! unchanged on all three.
//!
//! The adjacency, kind and postings accessors **lend**: they return a
//! [`Cow`], so a store that owns what is asked for — [`ProvGraph`]'s
//! arena, a paged log's decoded-record cache and footer — hands out
//! `Cow::Borrowed` and the generic walk compiles to the same loop a
//! store-specific one would, while a store that has to assemble the
//! answer (an append log's row the tail grew, its visibility-filtered
//! postings) returns `Cow::Owned`. Callers read through the `Cow` and
//! never need to know which they got.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::graph::{InvocationId, InvocationInfo, NodeId, NodeKind, ProvGraph, Role};
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
    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind>;

    /// The node's role. May fault in the node's record.
    fn role_of(&self, id: NodeId) -> Role;

    /// Ingredient ids (may include invisible nodes). May fault in the
    /// node's record.
    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]>;

    /// Dependent ids (may include invisible nodes). Index-level on
    /// paged stores: must not require decoding the node's record.
    fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]>;

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
    /// Lent like the adjacency accessors: a store that keeps the list
    /// hands out the slice.
    fn module_postings(&self, _module: &str) -> Option<Cow<'_, [NodeId]>> {
        None
    }

    /// Visible node ids of the given kind name (see [`NodeKind::name`]),
    /// if the store maintains postings for them.
    fn kind_postings(&self, _kind: &str) -> Option<Cow<'_, [NodeId]>> {
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

// `#[inline]`: these are one arena index each, called per node from
// generic walks and scans instantiated in other crates; without it each
// becomes a cross-crate call (the resident executor used to read
// `&Node` fields directly).
impl GraphStore for ProvGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn is_visible(&self, id: NodeId) -> bool {
        self.node(id).is_visible()
    }

    #[inline]
    fn visible_count(&self) -> usize {
        ProvGraph::visible_count(self)
    }

    #[inline]
    fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
        Cow::Borrowed(&self.node(id).kind)
    }

    #[inline]
    fn role_of(&self, id: NodeId) -> Role {
        self.node(id).role
    }

    #[inline]
    fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.node(id).preds())
    }

    #[inline]
    fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.node(id).succs())
    }

    #[inline]
    fn invocations(&self) -> &[InvocationInfo] {
        ProvGraph::invocations(self)
    }

    fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        crate::obs::HeapSize::heap_breakdown(self)
    }
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
            .iter()
            .copied()
            .filter(|p| {
                // Hidden/deleted ingredients no longer contribute, and
                // v-nodes contribute to values rather than to tuple
                // provenance.
                store.is_visible(*p) && !store.kind_of(*p).is_value_node()
            })
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
        // v-nodes have no tuple provenance of their own.
        NodeKind::AggResult { .. } | NodeKind::Tensor | NodeKind::Const { .. } => ProvExpr::One,
    };
    memo.insert(id, expr.clone());
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::deletion::compute_deletion;
    use crate::query::{subgraph, traverse, Direction};

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

    /// The property the resident read path's speed rests on: the
    /// generic walk over a `ProvGraph` reads the arena in place.
    #[test]
    fn resident_accessors_lend_from_the_arena() {
        let g = sample();
        for (id, _) in g.iter() {
            assert!(matches!(g.preds_of(id), Cow::Borrowed(_)), "preds of {id}");
            assert!(matches!(g.succs_of(id), Cow::Borrowed(_)), "succs of {id}");
            assert!(matches!(g.kind_of(id), Cow::Borrowed(_)), "kind of {id}");
        }
    }

    #[test]
    fn traversal_on_invisible_root_errors() {
        let mut g = sample();
        let root = NodeId(0);
        g.set_node_deleted(root, true);
        assert!(traverse(&g, root, Direction::Descendants, None, |_| true).is_err());
        assert!(subgraph(&g, root).is_err());
        assert!(compute_deletion(&g, root).is_err());
    }
}
