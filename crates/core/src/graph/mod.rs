//! The provenance graph (paper §3).
//!
//! A [`ProvGraph`] is a table of [`Node`] slots plus flat edge arrays
//! (see `adjacency.rs`): every node's ingredients in one shared buffer, and
//! its dependents in a second one derived from the first. Edges point
//! from ingredients to results, matching the paper's figures
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

mod adjacency;
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

use std::collections::HashMap;
use std::sync::OnceLock;

use adjacency::Adjacency;

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
///
/// Nodes live in one table of 48-byte slots ([`Node`]: kind, role,
/// flags). A node's ingredients are a span of one shared pred buffer;
/// its dependents a span of the successor index, which is derived from
/// the preds in one counting pass (CSR: starts plus ids) — by
/// [`GraphTracker::finish`] and the storage decoder, or on first read —
/// and from then on kept in step edge by edge. Every mutation costs what
/// it changes: adding an edge to a node whose span does not end its
/// buffer moves the span to the end, removing one shrinks the span in
/// place, and the holes both leave stay allocated (and counted).
///
/// Besides the edges it keeps the module and kind [`Postings`] every
/// [`crate::store::GraphStore`] answers, built in one pass on first use
/// ([`ProvGraph::postings`]). **Invalidation rule:** every mutator that
/// can change what a posting holds — [`ProvGraph::add_node`], the
/// visibility flips, [`ProvGraph::register_invocation`] /
/// [`ProvGraph::add_invocation`] and `node_mut` — drops them, and the
/// next read rebuilds them. A read-mostly session builds them once; the
/// tracker's `add_node` pays one check of whether they are built.
#[derive(Debug, Clone)]
pub struct ProvGraph {
    nodes: Vec<Node>,
    preds: Adjacency,
    /// Dependents, built from `preds` on first need (a tracker's graph
    /// has none until `finish`) and maintained by every edge mutation
    /// once built.
    succs: OnceLock<Adjacency>,
    invocations: Vec<InvocationInfo>,
    stashes: Vec<ZoomStash>,
    /// Module names currently zoomed out → stash index.
    zoomed_modules: HashMap<String, u32>,
    /// Count of visible nodes. Every visibility flip goes through
    /// [`ProvGraph::add_node`], [`ProvGraph::set_node_deleted`] or
    /// `set_zoom_hidden` — the node flags are private to this module
    /// tree — so the count cannot drift from the arena.
    visible: usize,
    /// Boxed: a graph that never reads its postings stays small.
    postings: OnceLock<Box<Postings>>,
}

/// An empty graph holding an (empty) successor index, so edges added one
/// at a time keep their dependents in insertion order.
impl Default for ProvGraph {
    fn default() -> Self {
        let graph = ProvGraph::unindexed(0);
        let _ = graph.succs.set(Adjacency::default());
        graph
    }
}

/// A node as [`ProvGraph::node`] lends it: a `Copy` view that derefs to
/// the node's slot (`node.kind`, `node.role`, `node.is_visible()`) and
/// reads its edges from the graph's arrays.
#[derive(Clone, Copy)]
pub struct NodeRef<'g> {
    graph: &'g ProvGraph,
    slot: &'g Node,
    id: NodeId,
}

impl<'g> NodeRef<'g> {
    /// The slot itself, for the graph's lifetime (a borrow through
    /// `Deref` lasts only as long as the view).
    pub fn slot(self) -> &'g Node {
        self.slot
    }

    /// Ingredient nodes (may include hidden/deleted ids; filter against
    /// visibility when traversing).
    #[inline]
    pub fn preds(self) -> &'g [NodeId] {
        self.graph.preds.list(self.id.index())
    }

    /// Dependent nodes.
    #[inline]
    pub fn succs(self) -> &'g [NodeId] {
        self.graph.succ_index().list(self.id.index())
    }
}

impl std::ops::Deref for NodeRef<'_> {
    type Target = Node;

    #[inline]
    fn deref(&self) -> &Node {
        self.slot
    }
}

/// Visible node ids by module and by kind, each list ascending — what
/// the v2 footer's postings hold: a node belongs to the module of its
/// role's invocation, and to its [`NodeKind::name`].
#[derive(Debug, Clone, Default)]
pub struct Postings {
    by_module: HashMap<String, Vec<NodeId>>,
    /// Indexed by [`NodeKind::ordinal`].
    by_kind: [Vec<NodeId>; NodeKind::NAMES.len()],
}

impl Postings {
    /// One sweep of the arena. Module names are resolved once per
    /// invocation, kinds by ordinal, so no node costs a string hash.
    fn build(graph: &ProvGraph) -> Postings {
        let mut slots: HashMap<&str, usize> = HashMap::new();
        let slot_of: Vec<usize> = graph
            .invocations
            .iter()
            .map(|info| {
                let next = slots.len();
                *slots.entry(info.module.as_str()).or_insert(next)
            })
            .collect();
        let mut modules = vec![Vec::new(); slots.len()];
        let mut by_kind: [Vec<NodeId>; NodeKind::NAMES.len()] = Default::default();
        for (id, node) in graph.iter_visible() {
            let inv = node.role.invocation();
            if let Some(&slot) = inv.and_then(|inv| slot_of.get(inv.index())) {
                modules[slot].push(id);
            }
            by_kind[node.kind.ordinal()].push(id);
        }
        by_kind.iter_mut().for_each(Vec::shrink_to_fit);
        let by_module = slots
            .into_iter()
            .map(|(name, slot)| {
                let mut ids = std::mem::take(&mut modules[slot]);
                ids.shrink_to_fit();
                (name.to_string(), ids)
            })
            .collect();
        Postings { by_module, by_kind }
    }

    /// Visible ids owned by the module's invocations (empty if none).
    pub fn module(&self, module: &str) -> &[NodeId] {
        self.by_module.get(module).map_or(&[], Vec::as_slice)
    }

    /// Visible ids of the kind named `kind` (empty if none).
    pub fn kind(&self, kind: &str) -> &[NodeId] {
        NodeKind::NAMES
            .binary_search(&kind)
            .map_or(&[], |k| &self.by_kind[k])
    }

    /// Every module's list, in no particular order.
    pub fn modules(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.by_module
            .iter()
            .map(|(m, ids)| (m.as_str(), ids.as_slice()))
    }

    /// Every kind's list, by name.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &[NodeId])> {
        NodeKind::NAMES
            .into_iter()
            .zip(self.by_kind.iter().map(Vec::as_slice))
    }

    fn heap_bytes(&self) -> usize {
        use crate::obs::vec_alloc_bytes;
        let entry = std::mem::size_of::<(String, Vec<NodeId>)>() + 1;
        std::mem::size_of::<Postings>()
            + self.by_module.capacity() * entry
            + self
                .by_module
                .iter()
                .map(|(m, ids)| m.len() + vec_alloc_bytes(ids))
                .sum::<usize>()
            + self.by_kind.iter().map(vec_alloc_bytes).sum::<usize>()
    }
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// An empty graph without a successor index, with room for `nodes`
    /// slots: a tracker's or a decoder's ([`ProvGraph::push_decoded`]),
    /// which write preds only and derive the index once at the end.
    pub fn unindexed(nodes: usize) -> Self {
        ProvGraph {
            nodes: Vec::with_capacity(nodes),
            preds: Adjacency::with_capacity(nodes),
            succs: OnceLock::new(),
            invocations: Vec::new(),
            stashes: Vec::new(),
            zoomed_modules: HashMap::new(),
            visible: 0,
            postings: OnceLock::new(),
        }
    }

    /// The successor index, derived from the preds if not yet built.
    #[inline]
    fn succ_index(&self) -> &Adjacency {
        self.succs.get_or_init(|| self.preds.transpose())
    }

    /// The successor index for a mutation, built first if need be.
    fn succ_index_mut(&mut self) -> &mut Adjacency {
        self.succ_index();
        self.succs.get_mut().expect("built just above")
    }

    /// Build the successor index (exact-size by construction), if it is
    /// not built: a finished or decoded graph always holds it.
    pub(crate) fn index_successors(&mut self) {
        self.succ_index();
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
        self.iter_visible()
            .map(|(_, n)| {
                n.preds()
                    .iter()
                    .filter(|p| self.nodes[p.index()].is_visible())
                    .count()
            })
            .sum()
    }

    /// Access a node (panics on out-of-range id — ids are only minted by
    /// this graph, so an invalid id is a logic error).
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef {
            graph: self,
            slot: &self.nodes[id.index()],
            id,
        }
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.postings.take();
        &mut self.nodes[id.index()]
    }

    /// The module and kind postings, built on first use and kept until
    /// a mutation drops them (see the type doc).
    pub fn postings(&self) -> &Postings {
        self.postings
            .get_or_init(|| Box::new(Postings::build(self)))
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
        self.postings.take();
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
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeRef<'_>)> {
        self.nodes.iter().enumerate().map(move |(i, slot)| {
            let id = NodeId(i as u32);
            (
                id,
                NodeRef {
                    graph: self,
                    slot,
                    id,
                },
            )
        })
    }

    /// Iterate over visible nodes only.
    pub fn iter_visible(&self) -> impl Iterator<Item = (NodeId, NodeRef<'_>)> {
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
        self.postings.take();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(kind, role));
        self.preds.push_list();
        if let Some(succs) = self.succs.get_mut() {
            succs.push_list();
        }
        self.visible += 1;
        id
    }

    /// Add an edge ingredient → result.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.add_edges(&[from], to);
    }

    /// Add edges from each of `froms`, in order, to `to` — one span move
    /// at most, however many edges.
    pub fn add_edges(&mut self, froms: &[NodeId], to: NodeId) {
        debug_assert!(!froms.contains(&to), "self-loop in provenance graph");
        self.preds.extend(to.index(), froms);
        if let Some(succs) = self.succs.get_mut() {
            for from in froms {
                succs.push(from.index(), to);
            }
        }
    }

    /// Append a node as a decoder reads it back: kind, role and
    /// tombstone, with `read_preds` appending its ingredients straight
    /// to the shared pred buffer. Only for a graph without a successor
    /// index, which [`ProvGraph::finish_decoded`] then builds; ids are
    /// not checked here (decoders check every reference before that).
    pub fn push_decoded<E>(
        &mut self,
        kind: NodeKind,
        role: Role,
        deleted: bool,
        read_preds: impl FnOnce(&mut Vec<NodeId>) -> Result<(), E>,
    ) -> Result<NodeId, E> {
        debug_assert!(self.succs.get().is_none(), "decoding into an indexed graph");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            deleted,
            ..Node::new(kind, role)
        });
        self.visible += usize::from(!deleted);
        self.preds.push_list_with(read_preds)?;
        Ok(id)
    }

    /// Finish a decoded graph: install its invocation table, trim the
    /// pred buffer (it grew as records were read) and build the
    /// successor index — every array at exact size.
    pub fn finish_decoded(&mut self, invocations: Vec<InvocationInfo>) {
        self.postings.take();
        self.invocations = invocations;
        self.nodes.shrink_to_fit();
        self.preds.shrink_to_fit();
        self.index_successors();
    }

    /// Register an invocation whose `m` node already exists (used when
    /// absorbing shard graphs and when restoring persisted graphs).
    pub fn register_invocation(
        &mut self,
        module: String,
        execution: u32,
        m_node: NodeId,
    ) -> InvocationId {
        self.postings.take();
        let id = InvocationId(self.invocations.len() as u32);
        self.invocations.push(InvocationInfo {
            module,
            execution,
            m_node,
        });
        id
    }

    /// Register an invocation and create its `m` node.
    pub fn add_invocation(&mut self, module: &str, execution: u32) -> (InvocationId, NodeId) {
        let inv = InvocationId(self.invocations.len() as u32);
        let m_node = self.add_node(NodeKind::Invocation, Role::Invocation(inv));
        self.register_invocation(module.to_string(), execution, m_node);
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
        // Every node exists before wiring: a fragment edge may point at a
        // later fragment node.
        let mut preds = Vec::new();
        for (k, &id) in created.iter().enumerate() {
            preds.clear();
            preds.extend(
                fragment
                    .preds
                    .list(k)
                    .iter()
                    .map(|p| NodeId(p.0 + node_off)),
            );
            self.add_edges(&preds, id);
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
        let preds = self.preds.take(id.index());
        let succs = self.succ_index_mut();
        for p in preds {
            succs.remove(p.index(), id);
        }
        let dependents = succs.take(id.index());
        for s in dependents {
            self.preds.remove(s.index(), id);
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
    /// paper prescribes for UDFs). One pass over the visible cone
    /// ([`crate::query::eval_node`] in [`crate::query::Symbolic`]),
    /// unbounded and without a deadline.
    ///
    /// # Panics
    ///
    /// On a malformed cone — an invocation node whose role names no
    /// invocation, or an ingredient cycle — which a tracker never
    /// builds. `WHY` answers such a cone with a typed error.
    pub fn expr_of(&self, id: NodeId) -> ProvExpr {
        use crate::query::{eval_node, Symbolic};
        eval_node(self, id, &Symbolic, crate::obs::TraceCtx::disabled())
            .unwrap_or_else(|e| panic!("expr_of: {e}"))
    }

    /// Reconstruct the [`crate::agg::AggValue`] formal sum recorded at an
    /// aggregate v-node: each ⊗ ingredient contributes one `t ⊗ v` term.
    pub fn agg_value_of(&self, id: NodeId) -> Option<crate::agg::AggValue> {
        let node = self.node(id);
        let NodeKind::AggResult { op } = node.kind else {
            return None;
        };
        let mut terms = Vec::new();
        for &t in node.preds() {
            let tensor = self.node(t);
            if !matches!(tensor.kind, NodeKind::Tensor) {
                continue;
            }
            let mut prov = ProvExpr::One;
            let mut value = None;
            for &ing in tensor.preds() {
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
            for &p in n.preds() {
                if self.nodes[p.index()].is_visible() {
                    edges.push((p, id));
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
        self.node(id).succs().len()
    }

    /// Visible ids sorted by descending fanout, capped at `k`.
    pub fn top_fanout_nodes(&self, k: usize) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.iter_visible().map(|(id, _)| id).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.fanout(*id)));
        ids.truncate(k);
        ids
    }
}

impl crate::obs::HeapSize for ProvGraph {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        use crate::obs::vec_alloc_bytes;
        let labels: usize = self.nodes.iter().map(|n| kind_heap_bytes(&n.kind)).sum();
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
        let mut parts = vec![
            ("node_arena", vec_alloc_bytes(&self.nodes)),
            ("preds", self.preds.heap_bytes()),
            (
                "succ_index",
                self.succs.get().map_or(0, Adjacency::heap_bytes),
            ),
            ("labels", labels),
            ("invocations", invocations),
            ("zoom_stashes", stashes),
        ];
        if let Some(postings) = self.postings.get() {
            parts.push(("postings", postings.heap_bytes()));
        }
        parts
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
        self.add_edges(preds, id);
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

    fn postings_sweep(g: &ProvGraph) -> Vec<(String, Vec<NodeId>)> {
        let mut lists: Vec<(String, Vec<NodeId>)> = Vec::new();
        let mut push = |name: String, id| match lists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, ids)) => ids.push(id),
            None => lists.push((name, vec![id])),
        };
        for (id, n) in g.iter_visible() {
            if let Some(inv) = n.role.invocation() {
                push(format!("module {}", g.invocation(inv).module), id);
            }
            push(format!("kind {}", n.kind.name()), id);
        }
        lists.sort();
        lists
    }

    fn postings_listed(g: &ProvGraph) -> Vec<(String, Vec<NodeId>)> {
        let p = g.postings();
        let modules = p.modules().map(|(m, ids)| (format!("module {m}"), ids));
        let kinds = p.kinds().map(|(k, ids)| (format!("kind {k}"), ids));
        let mut lists: Vec<(String, Vec<NodeId>)> = modules
            .chain(kinds)
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(name, ids)| (name, ids.to_vec()))
            .collect();
        lists.sort();
        lists
    }

    #[test]
    fn postings_are_built_on_first_use_and_dropped_by_every_mutator() {
        let mut g = ProvGraph::new();
        let (_, m) = g.add_invocation("M", 0);
        let a = g.add_base("a");
        let i = g.add_node(NodeKind::ModuleInput, Role::ModuleInput(InvocationId(0)));
        g.add_edge(a, i);
        g.add_edge(m, i);
        let built = |g: &ProvGraph| g.postings.get().is_some();
        assert!(!built(&g), "nothing reads them yet");
        assert_eq!(postings_listed(&g), postings_sweep(&g));
        assert_eq!(g.postings().module("M"), &[m, i]);
        assert_eq!(g.postings().kind("base_tuple"), &[a]);
        assert!(g.postings().kind("no_such_kind").is_empty());
        assert!(g.postings().module("N").is_empty());
        let heap = crate::obs::HeapSize::heap_breakdown(&g);
        assert!(heap
            .iter()
            .any(|&(name, bytes)| name == "postings" && bytes > 0));

        let mutations: [&dyn Fn(&mut ProvGraph); 5] = [
            &|g| {
                g.add_node(NodeKind::StateUnit, Role::State(InvocationId(0)));
            },
            &|g| g.set_node_deleted(a, true),
            &|g| {
                g.add_invocation("N", 1);
            },
            &|g| {
                g.register_invocation("N".into(), 2, m);
            },
            &|g| g.node_mut(i).kind = NodeKind::ModuleOutput,
        ];
        for mutate in mutations {
            g.postings();
            mutate(&mut g);
            assert!(!built(&g));
            assert_eq!(postings_listed(&g), postings_sweep(&g));
        }
        // An edge changes no posting, so it keeps them.
        g.add_edge(a, m);
        assert!(built(&g));
    }

    #[test]
    fn a_decoded_graph_matches_the_graph_built_edge_by_edge() {
        let mut g = ProvGraph::new();
        g.add_invocation("M", 0);
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let p = g.add_plus(&[t, a]);
        g.add_delta(&[p, t, b]);
        g.set_node_deleted(b, true);
        let mut built = ProvGraph::unindexed(g.len());
        for (_, n) in g.iter() {
            let preds = n.preds();
            built
                .push_decoded(n.kind.clone(), n.role, n.is_deleted(), |buf| {
                    buf.extend_from_slice(preds);
                    Ok::<_, ()>(())
                })
                .unwrap();
        }
        built.finish_decoded(g.invocations.clone());
        assert_eq!(built.visible_count(), g.visible_count());
        assert_eq!(built.invocations(), g.invocations());
        for ((_, x), (_, y)) in built.iter().zip(g.iter()) {
            assert_eq!((x.preds(), x.succs()), (y.preds(), y.succs()));
            assert_eq!(x.slot(), y.slot());
        }
        // Both edge arrays at exact size: no spare capacity, no holes.
        let succs = built.succs.get().unwrap();
        for adj in [&built.preds, succs] {
            assert_eq!(adj.holes(), 0);
            assert_eq!(adj.heap_bytes(), 8 * built.len() + 4 * 7);
        }
    }

    #[test]
    fn a_tracker_graph_indexes_successors_on_first_read_then_keeps_them() {
        let mut g = ProvGraph::unindexed(0);
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        assert!(g.succs.get().is_none());
        assert_eq!(g.node(a).succs(), &[p]);
        let q = g.add_plus(&[a]);
        assert_eq!(g.node(a).succs(), &[p, q]);
        g.unlink_and_delete(p);
        assert_eq!(g.node(a).succs(), &[q]);
        assert!(g.node(b).succs().is_empty());
        validate::check_structure(&g).unwrap();
    }

    #[test]
    fn heap_components_include_holes_and_sum_to_the_total() {
        use crate::obs::HeapSize;
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a]);
        let q = g.add_plus(&[b]);
        let before = g.preds.heap_bytes();
        // p's and then q's preds, and a's succs, no longer end their
        // buffers: each push moves a list and leaves its old slot behind.
        g.add_edge(b, p);
        g.add_edge(a, q);
        assert_eq!((g.preds.holes(), g.succs.get().unwrap().holes()), (2, 1));
        assert!(g.preds.heap_bytes() > before);
        let parts = g.heap_breakdown();
        let names: Vec<&str> = parts.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "node_arena",
                "preds",
                "succ_index",
                "labels",
                "invocations",
                "zoom_stashes"
            ]
        );
        assert_eq!(parts.iter().map(|(_, b)| b).sum::<usize>(), g.heap_bytes());
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
