//! The provenance graph (paper §3).
//!
//! A [`ProvGraph`] is an arena of [`Node`]s with bidirectional adjacency.
//! Edges point from ingredients to results, matching the paper's figures
//! (`t₁ → + ← t₂`). The graph records both *provenance* structure
//! (p-nodes: tokens, +, ·, δ, module input/output/state, invocations)
//! and *values* (v-nodes: constants, ⊗ tensors, aggregate results,
//! black-box values) — the mixed representation required for aggregation
//! provenance.
//!
//! Construction goes through the [`Tracker`] trait so that the Pig Latin
//! evaluator and the workflow executor can run with provenance capture
//! ([`GraphTracker`]) or without ([`NoTracker`]) — the two arms of the
//! paper's Figure 5 experiments.

pub mod bitset;
pub mod dot;
pub mod node;
pub mod shard;
pub mod stats;
pub mod tracker;
pub mod validate;

pub use bitset::BitSet;
pub use node::{InvocationId, Node, NodeId, NodeKind, Role, RETIRED_STASH};
pub use shard::ShardTracker;
pub use tracker::{GraphTracker, NoTracker, Tracker};

use lipstick_nrel::Value;

use crate::agg::AggOp;
use crate::semiring::{ProvExpr, Token};

/// Information about one module invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationInfo {
    /// Module name (`LV(v)` in the paper; e.g. `Mdealer1`).
    pub module: String,
    /// Which workflow execution of the sequence this invocation belongs
    /// to (`E0, E1, …`).
    pub execution: u32,
    /// The invocation's `m` node.
    pub m_node: NodeId,
}

/// Stash of a zoomed-out module: everything ZoomOut hid, so ZoomIn can
/// restore it exactly.
#[derive(Debug, Clone)]
pub struct ZoomStash {
    /// Module name this stash belongs to.
    pub module: String,
    /// Nodes hidden by the ZoomOut.
    pub hidden: Vec<NodeId>,
    /// Composite zoom nodes created by the ZoomOut.
    pub zoom_nodes: Vec<NodeId>,
}

/// Canonical visible-graph signature: sorted labelled nodes plus
/// sorted visible edges (see [`ProvGraph::visible_signature`]).
pub type VisibleSignature = (Vec<(NodeId, String)>, Vec<(NodeId, NodeId)>);

/// The provenance graph.
#[derive(Debug, Clone, Default)]
pub struct ProvGraph {
    nodes: Vec<Node>,
    invocations: Vec<InvocationInfo>,
    stashes: Vec<ZoomStash>,
    /// Module names currently zoomed out → stash index.
    zoomed_modules: std::collections::HashMap<String, u32>,
    /// Count of visible nodes. Every visibility flip goes through
    /// [`ProvGraph::add_node`], [`ProvGraph::set_node_deleted`] or
    /// `set_zoom_hidden` — the node flags are private to this module
    /// tree — so the count cannot drift from the arena.
    visible: usize,
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// Number of nodes ever allocated (including hidden/deleted).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no nodes were ever allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of currently visible nodes (maintained, not counted).
    pub fn visible_count(&self) -> usize {
        self.visible
    }

    /// Number of edges between visible nodes.
    pub fn visible_edge_count(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_visible())
            .map(|(_, n)| {
                n.succs
                    .iter()
                    .filter(|s| self.node(**s).is_visible())
                    .count()
            })
            .sum()
    }

    /// Access a node (panics on out-of-range id — ids are only minted by
    /// this graph, so an invalid id is a logic error).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Set or clear a node's tombstone (deletion propagation, ZoomIn
    /// cleanup, the storage loaders).
    pub fn set_node_deleted(&mut self, id: NodeId, deleted: bool) {
        self.flip(id, |n| n.deleted = deleted);
    }

    /// Hide a node behind a ZoomOut, or restore it on ZoomIn.
    pub(crate) fn set_zoom_hidden(&mut self, id: NodeId, hidden: bool) {
        self.flip(id, |n| n.zoom_hidden = hidden);
    }

    /// Apply a flag change and carry its effect on visibility into the
    /// count (a tombstoned node that is also zoom-hidden flips nothing).
    fn flip(&mut self, id: NodeId, change: impl FnOnce(&mut Node)) {
        let node = &mut self.nodes[id.index()];
        let was = node.is_visible();
        change(node);
        match (was, node.is_visible()) {
            (true, false) => self.visible -= 1,
            (false, true) => self.visible += 1,
            _ => {}
        }
    }

    /// Iterate over `(id, node)` for all allocated nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate over visible nodes only.
    pub fn iter_visible(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.iter().filter(|(_, n)| n.is_visible())
    }

    /// The invocation table.
    pub fn invocations(&self) -> &[InvocationInfo] {
        &self.invocations
    }

    /// Invocation metadata.
    pub fn invocation(&self, id: InvocationId) -> &InvocationInfo {
        &self.invocations[id.index()]
    }

    /// Ids of all invocations of the given module.
    pub fn invocations_of(&self, module: &str) -> Vec<InvocationId> {
        self.invocations
            .iter()
            .enumerate()
            .filter(|(_, info)| info.module == module)
            .map(|(i, _)| InvocationId(i as u32))
            .collect()
    }

    /// Module names currently zoomed out, in zoom (stash) order — a
    /// deterministic order, so statements that enumerate them (`ZOOM
    /// IN` of everything) behave identically across runs and backends.
    pub fn zoomed_out_modules(&self) -> Vec<&str> {
        let mut mods: Vec<(u32, &str)> = self
            .zoomed_modules
            .iter()
            .map(|(m, &idx)| (idx, m.as_str()))
            .collect();
        mods.sort_unstable_by_key(|&(idx, _)| idx);
        mods.into_iter().map(|(_, m)| m).collect()
    }

    /// The stash behind a [`NodeKind::Zoomed`] node: what ZoomOut hid.
    pub fn stash(&self, idx: u32) -> &ZoomStash {
        &self.stashes[idx as usize]
    }

    /// The stash of a currently zoomed-out module, if any — what a
    /// `ZOOM IN` of that module would restore. Callers maintaining
    /// derived state (the reach index) read it to learn exactly which
    /// nodes a zoom touched.
    pub fn stash_of(&self, module: &str) -> Option<&ZoomStash> {
        self.zoomed_modules
            .get(module)
            .map(|&idx| &self.stashes[idx as usize])
    }

    /// Number of stashes ever pushed (indices are stable) — the overflow
    /// bound [`crate::query::plan_zoom_out`] checks.
    pub fn stash_count(&self) -> usize {
        self.stashes.len()
    }

    pub(crate) fn push_stash(&mut self, stash: ZoomStash) -> u32 {
        let idx = self.stashes.len() as u32;
        self.zoomed_modules.insert(stash.module.clone(), idx);
        self.stashes.push(stash);
        idx
    }

    pub(crate) fn take_stash(&mut self, module: &str) -> Option<ZoomStash> {
        let idx = self.zoomed_modules.remove(module)?;
        // Leave a hollow entry so other stash indices stay stable.
        let hollow = ZoomStash {
            module: String::new(),
            hidden: Vec::new(),
            zoom_nodes: Vec::new(),
        };
        Some(std::mem::replace(&mut self.stashes[idx as usize], hollow))
    }

    // ----- construction -----

    /// Allocate a node.
    pub fn add_node(&mut self, kind: NodeKind, role: Role) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(kind, role));
        self.visible += 1;
        id
    }

    /// Add an edge ingredient → result.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        debug_assert_ne!(from, to, "self-loop in provenance graph");
        self.nodes[from.index()].succs.push(to);
        self.nodes[to.index()].preds.push(from);
    }

    /// Register an invocation whose `m` node already exists (used when
    /// absorbing shard graphs and when restoring persisted graphs).
    pub fn register_invocation(
        &mut self,
        module: String,
        execution: u32,
        m_node: NodeId,
    ) -> InvocationId {
        let id = InvocationId(self.invocations.len() as u32);
        self.invocations.push(InvocationInfo {
            module,
            execution,
            m_node,
        });
        id
    }

    pub(crate) fn push_invocation_raw(&mut self, module: String, execution: u32, m_node: NodeId) {
        self.register_invocation(module, execution, m_node);
    }

    /// Register an invocation and create its `m` node.
    pub fn add_invocation(&mut self, module: &str, execution: u32) -> (InvocationId, NodeId) {
        let inv = InvocationId(self.invocations.len() as u32);
        let m_node = self.add_node(NodeKind::Invocation, Role::Invocation(inv));
        self.invocations.push(InvocationInfo {
            module: module.to_string(),
            execution,
            m_node,
        });
        (inv, m_node)
    }

    /// Append a self-contained fragment graph — new workflow output from
    /// the Provenance Tracker. Its nodes take the next ids and its
    /// invocations the next invocation ids ([`Role::rebased`]), and its
    /// tombstones carry over. Returns the new ids, in fragment order.
    pub fn splice(&mut self, fragment: &ProvGraph) -> Vec<NodeId> {
        let node_off = self.nodes.len() as u32;
        let inv_off = self.invocations.len() as u32;
        let created: Vec<NodeId> = fragment
            .nodes
            .iter()
            .map(|n| {
                let id = self.add_node(n.kind.clone(), n.role.rebased(inv_off));
                self.set_node_deleted(id, n.deleted);
                id
            })
            .collect();
        // Second pass: a fragment edge may point at a later fragment
        // node, so every node must exist before wiring.
        for (n, &id) in fragment.nodes.iter().zip(&created) {
            for &p in &n.preds {
                self.add_edge(NodeId(p.0 + node_off), id);
            }
        }
        for inv in &fragment.invocations {
            let m_node = NodeId(inv.m_node.0 + node_off);
            self.register_invocation(inv.module.clone(), inv.execution, m_node);
        }
        created
    }

    /// Disconnect a node from all neighbours and tombstone it. Used by
    /// ZoomIn to retire composite zoom nodes.
    pub(crate) fn unlink_and_delete(&mut self, id: NodeId) {
        let preds = std::mem::take(&mut self.nodes[id.index()].preds);
        for p in preds {
            self.nodes[p.index()].succs.retain(|s| *s != id);
        }
        let succs = std::mem::take(&mut self.nodes[id.index()].succs);
        for s in succs {
            self.nodes[s.index()].preds.retain(|p| *p != id);
        }
        self.set_node_deleted(id, true);
    }

    // ----- expression extraction -----

    /// Extract the symbolic provenance expression rooted at a p-node,
    /// following only p-node ingredients (v-nodes contribute to values,
    /// not to tuple provenance).
    ///
    /// Invocation nodes appear as opaque tokens `⟨module#k⟩`, black-box
    /// p-nodes as the product of their inputs (coarse-grained, as the
    /// paper prescribes for UDFs).
    pub fn expr_of(&self, id: NodeId) -> ProvExpr {
        crate::store::expr_of_store(self, id)
    }

    /// Reconstruct the [`crate::agg::AggValue`] formal sum recorded at an
    /// aggregate v-node: each ⊗ ingredient contributes one `t ⊗ v` term.
    pub fn agg_value_of(&self, id: NodeId) -> Option<crate::agg::AggValue> {
        let node = self.node(id);
        let NodeKind::AggResult { op } = node.kind else {
            return None;
        };
        let mut terms = Vec::new();
        for &t in &node.preds {
            let tensor = self.node(t);
            if !matches!(tensor.kind, NodeKind::Tensor) {
                continue;
            }
            let mut prov = ProvExpr::One;
            let mut value = None;
            for &ing in &tensor.preds {
                match &self.node(ing).kind {
                    NodeKind::Const { value: v } => value = Some(v.clone()),
                    _ => prov = self.expr_of(ing),
                }
            }
            terms.push((prov, value.unwrap_or(Value::Null)));
        }
        Some(crate::agg::AggValue::new(op, terms))
    }

    // ----- comparisons -----

    /// A canonical signature of the *visible* graph: sorted node ids with
    /// kind labels, and sorted visible edges. Two graphs with equal
    /// signatures are equal as provenance graphs (node identity in this
    /// arena is stable, so this is exact, not up to isomorphism).
    pub fn visible_signature(&self) -> VisibleSignature {
        let mut nodes: Vec<(NodeId, String)> = self
            .iter_visible()
            .map(|(id, n)| (id, n.kind.label()))
            .collect();
        nodes.sort();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (id, n) in self.iter_visible() {
            for &s in &n.succs {
                if self.node(s).is_visible() {
                    edges.push((id, s));
                }
            }
        }
        edges.sort();
        (nodes, edges)
    }

    /// Total out-degree ("number of children") of a node — used by the
    /// paper's §5.6 methodology of picking the 50 highest-fanout nodes
    /// as query roots.
    pub fn fanout(&self, id: NodeId) -> usize {
        self.node(id).succs.len()
    }

    /// Visible ids sorted by descending fanout, capped at `k`.
    pub fn top_fanout_nodes(&self, k: usize) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.iter_visible().map(|(id, _)| id).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.node(*id).succs.len()));
        ids.truncate(k);
        ids
    }
}

impl crate::obs::HeapSize for ProvGraph {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        use crate::obs::vec_alloc_bytes;
        let mut adjacency = 0usize;
        let mut labels = 0usize;
        for n in &self.nodes {
            adjacency += vec_alloc_bytes(&n.preds) + vec_alloc_bytes(&n.succs);
            labels += kind_heap_bytes(&n.kind);
        }
        let invocations = vec_alloc_bytes(&self.invocations)
            + self
                .invocations
                .iter()
                .map(|i| i.module.len())
                .sum::<usize>();
        let stashes = vec_alloc_bytes(&self.stashes)
            + self
                .stashes
                .iter()
                .map(|s| {
                    s.module.len() + vec_alloc_bytes(&s.hidden) + vec_alloc_bytes(&s.zoom_nodes)
                })
                .sum::<usize>()
            + self.zoomed_modules.capacity()
                * (std::mem::size_of::<String>() + std::mem::size_of::<u32>() + 1)
            + self.zoomed_modules.keys().map(String::len).sum::<usize>();
        vec![
            ("node_arena", vec_alloc_bytes(&self.nodes)),
            ("adjacency", adjacency),
            ("labels", labels),
            ("invocations", invocations),
            ("zoom_stashes", stashes),
        ]
    }
}

/// Owned heap bytes behind a node kind: token/name strings and constant
/// values. `Arc` payloads count refcount header plus data; nested
/// container constants are counted shallow (constants recorded in
/// provenance graphs are atoms). Public so the paged store can price
/// its decoded-record cache with the same ruler.
pub fn kind_heap_bytes(kind: &NodeKind) -> usize {
    const ARC_HEADER: usize = 16;
    match kind {
        NodeKind::WorkflowInput { token } | NodeKind::BaseTuple { token } => {
            ARC_HEADER + token.0.len()
        }
        NodeKind::BlackBox { name, .. } => name.len(),
        NodeKind::Const {
            value: Value::Str(s),
        } => ARC_HEADER + s.len(),
        _ => 0,
    }
}

/// Convenience: build graph fragments by hand in tests.
impl ProvGraph {
    /// Add a base tuple node with a fresh token.
    pub fn add_base(&mut self, token: &str) -> NodeId {
        self.add_node(
            NodeKind::BaseTuple {
                token: Token::new(token),
            },
            Role::Free,
        )
    }

    /// Add an operation node with the given ingredients.
    pub fn add_op(&mut self, kind: NodeKind, preds: &[NodeId]) -> NodeId {
        let id = self.add_node(kind, Role::Free);
        for &p in preds {
            self.add_edge(p, id);
        }
        id
    }

    /// Add a `+` node.
    pub fn add_plus(&mut self, preds: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Plus, preds)
    }

    /// Add a `·` node.
    pub fn add_times(&mut self, preds: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Times, preds)
    }

    /// Add a δ node.
    pub fn add_delta(&mut self, preds: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Delta, preds)
    }

    /// Add an aggregate with full tensor detail:
    /// `items` are (provenance node, value) pairs; returns the op node.
    pub fn add_agg(&mut self, op: AggOp, items: &[(NodeId, Value)]) -> NodeId {
        let op_node = self.add_node(NodeKind::AggResult { op }, Role::Free);
        for (prov, value) in items {
            let const_node = self.add_node(
                NodeKind::Const {
                    value: value.clone(),
                },
                Role::Free,
            );
            let tensor = self.add_node(NodeKind::Tensor, Role::Free);
            self.add_edge(*prov, tensor);
            self.add_edge(const_node, tensor);
            self.add_edge(tensor, op_node);
        }
        op_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_extract_simple_expr() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let c = g.add_base("c");
        let s = g.add_plus(&[a, b]);
        let t = g.add_times(&[s, c]);
        assert_eq!(g.expr_of(t).to_string(), "(a + b)·c");
    }

    #[test]
    fn extraction_shares_subgraphs_via_memo() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p1 = g.add_plus(&[a]);
        let p2 = g.add_plus(&[a]);
        let t = g.add_times(&[p1, p2]);
        // a is used twice jointly → a·a = a²
        let poly = crate::semiring::Polynomial::from_expr(&g.expr_of(t)).unwrap();
        assert_eq!(poly.to_string(), "a^2");
    }

    #[test]
    fn delta_node_extracts_delta_of_sum() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let d = g.add_delta(&[a, b]);
        assert_eq!(g.expr_of(d).to_string(), "δ(a + b)");
    }

    #[test]
    fn agg_value_reconstruction() {
        let mut g = ProvGraph::new();
        let c2 = g.add_base("C2");
        let c3 = g.add_base("C3");
        let agg = g.add_agg(AggOp::Count, &[(c2, Value::Int(1)), (c3, Value::Int(1))]);
        let av = g.agg_value_of(agg).unwrap();
        assert_eq!(av.current_value().unwrap(), Value::Int(2));
        // v-node preds don't leak into tuple provenance extraction
        assert_eq!(g.expr_of(agg), ProvExpr::One);
    }

    #[test]
    fn invocation_nodes_extract_as_tokens() {
        let mut g = ProvGraph::new();
        let (_, m) = g.add_invocation("Mdealer1", 0);
        let t = g.add_base("I1");
        let i = g.add_op(NodeKind::ModuleInput, &[t, m]);
        assert_eq!(g.expr_of(i).to_string(), "I1·⟨Mdealer1#0⟩");
    }

    #[test]
    fn visible_counts_track_edges() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        assert_eq!(g.visible_count(), 3);
        assert_eq!(g.visible_edge_count(), 2);
        g.set_node_deleted(p, true);
        assert_eq!(g.visible_count(), 2);
        assert_eq!(g.visible_edge_count(), 0);
    }

    #[test]
    fn unlink_removes_both_directions() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p = g.add_plus(&[a]);
        let q = g.add_plus(&[p]);
        g.unlink_and_delete(p);
        assert!(g.node(a).succs().is_empty());
        assert!(g.node(q).preds().is_empty());
        assert!(!g.node(p).is_visible());
    }

    #[test]
    fn splice_rebases_ids_invocations_and_forward_edges() {
        let mut g = ProvGraph::new();
        g.add_invocation("M", 0);
        g.add_base("a");
        let mut frag = ProvGraph::new();
        let (_, m) = frag.add_invocation("M", 1);
        let i = frag.add_node(NodeKind::ModuleInput, Role::ModuleInput(InvocationId(0)));
        let b = frag.add_base("b");
        frag.add_edge(m, i);
        // An ingredient the fragment allocated after its result.
        frag.add_edge(b, i);
        frag.set_node_deleted(i, true);

        let created = g.splice(&frag);
        assert_eq!(created, vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(g.node(NodeId(3)).role, Role::ModuleInput(InvocationId(1)));
        assert_eq!(g.node(NodeId(4)).role, Role::Free);
        assert!(g.node(NodeId(3)).is_deleted());
        assert_eq!(g.node(NodeId(3)).preds(), &[NodeId(2), NodeId(4)]);
        assert_eq!(g.node(NodeId(4)).succs(), &[NodeId(3)]);
        assert_eq!(g.invocation(InvocationId(1)).m_node, NodeId(2));
        assert_eq!(g.visible_count(), 4);
    }

    #[test]
    fn top_fanout_orders_by_out_degree() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        for _ in 0..3 {
            g.add_plus(&[a]);
        }
        g.add_plus(&[b]);
        let top = g.top_fanout_nodes(1);
        assert_eq!(top, vec![a]);
    }
}
