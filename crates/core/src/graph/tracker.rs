//! The [`Tracker`] abstraction: provenance capture as a pluggable effect.
//!
//! The Pig Latin evaluator and the workflow executor are generic over a
//! `Tracker`. [`GraphTracker`] materializes the paper's provenance graph;
//! [`NoTracker`] compiles every hook to a no-op, giving the honest
//! "without provenance" baseline of the paper's Figure 5 — the same
//! engine code path minus capture.

use std::collections::HashMap;
use std::fmt::Debug;

use lipstick_nrel::Value;

use crate::agg::AggOp;
use crate::graph::node::{InvocationId, NodeId, NodeKind, Role};
use crate::graph::ProvGraph;
use crate::semiring::Token;

/// The value half of an aggregation tensor term: either a plain constant
/// (a value read from a base attribute) or an existing v-node (a value
/// produced by an earlier aggregate or black box).
#[derive(Debug, Clone)]
pub enum AggItemValue<R> {
    Const(Value),
    Node(R),
}

/// Provenance capture hooks.
///
/// `Ref` is the handle attached to every tuple flowing through the
/// engine. All hooks take `&mut self`; a tracker is single-threaded by
/// design (the parallel executor gives each worker its own tracker and
/// merges the graphs afterwards).
pub trait Tracker {
    /// Per-tuple provenance handle.
    type Ref: Copy + PartialEq + Debug + Send + 'static;

    /// Whether this tracker records anything (used to skip token
    /// formatting work entirely when disabled).
    const TRACKING: bool;

    /// A base tuple with no recorded derivation (initial state, loaded
    /// relations). `token` is its annotation, e.g. `C2`.
    fn base(&mut self, token: &str) -> Self::Ref;

    /// FOREACH-projection / union-style alternative derivation.
    fn plus(&mut self, parts: &[Self::Ref]) -> Self::Ref;

    /// JOIN / FLATTEN-style joint derivation.
    fn times(&mut self, parts: &[Self::Ref]) -> Self::Ref;

    /// GROUP / COGROUP / DISTINCT duplicate elimination: δ over the
    /// members (the paper's shorthand attaches members directly to δ).
    fn delta(&mut self, parts: &[Self::Ref]) -> Self::Ref;

    /// FOREACH-aggregation: records the aggregate *value* as a v-node
    /// with one ⊗ tensor per member (§3.2, FOREACH (aggregation)).
    /// Returns the aggregate v-node.
    fn agg(&mut self, op: AggOp, items: &[(Self::Ref, AggItemValue<Self::Ref>)]) -> Self::Ref;

    /// Black-box (UDF) invocation over the given input nodes.
    fn blackbox(&mut self, name: &str, inputs: &[Self::Ref], is_value: bool) -> Self::Ref;

    // ----- workflow-level hooks (§3.1) -----

    /// A workflow input tuple (type "i" source node, `I1` in the paper).
    fn workflow_input(&mut self, token: &str) -> Self::Ref;

    /// Start a module invocation: creates the `m` node and makes this
    /// invocation current (nodes created until `end_invocation` are
    /// tagged as its intermediate computation).
    fn begin_invocation(&mut self, module: &str, execution: u32) -> Self::Ref;

    /// End the current module invocation.
    fn end_invocation(&mut self);

    /// Module input node: `·` of the tuple's provenance and the current
    /// invocation's `m` node.
    fn module_input(&mut self, tuple: Self::Ref) -> Self::Ref;

    /// Module output node; `vrefs` are v-nodes of values embedded in the
    /// output tuple (they connect to the output node, as `calcBid`'s
    /// value N80 connects to N90 in Figure 2(c)).
    fn module_output(&mut self, tuple: Self::Ref, vrefs: &[Self::Ref]) -> Self::Ref;

    /// Module state node (type "s") for a state tuple visible to the
    /// current invocation.
    fn state_node(&mut self, tuple: Self::Ref) -> Self::Ref;
}

/// The no-op tracker: `Ref = ()`. Every hook is inlined away, so running
/// the engine with `NoTracker` measures pure query execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTracker;

impl Tracker for NoTracker {
    type Ref = ();
    const TRACKING: bool = false;

    #[inline(always)]
    fn base(&mut self, _token: &str) -> Self::Ref {}
    #[inline(always)]
    fn plus(&mut self, _parts: &[Self::Ref]) -> Self::Ref {}
    #[inline(always)]
    fn times(&mut self, _parts: &[Self::Ref]) -> Self::Ref {}
    #[inline(always)]
    fn delta(&mut self, _parts: &[Self::Ref]) -> Self::Ref {}
    #[inline(always)]
    fn agg(&mut self, _op: AggOp, _items: &[(Self::Ref, AggItemValue<Self::Ref>)]) -> Self::Ref {}
    #[inline(always)]
    fn blackbox(&mut self, _name: &str, _inputs: &[Self::Ref], _is_value: bool) -> Self::Ref {}
    #[inline(always)]
    fn workflow_input(&mut self, _token: &str) -> Self::Ref {}
    #[inline(always)]
    fn begin_invocation(&mut self, _module: &str, _execution: u32) -> Self::Ref {}
    #[inline(always)]
    fn end_invocation(&mut self) {}
    #[inline(always)]
    fn module_input(&mut self, _tuple: Self::Ref) -> Self::Ref {}
    #[inline(always)]
    fn module_output(&mut self, _tuple: Self::Ref, _vrefs: &[Self::Ref]) -> Self::Ref {}
    #[inline(always)]
    fn state_node(&mut self, _tuple: Self::Ref) -> Self::Ref {}
}

/// The graph-building tracker. It appends each node's ingredients as the
/// node is made and derives the successor index once, in
/// [`GraphTracker::finish`].
#[derive(Debug)]
pub struct GraphTracker {
    graph: ProvGraph,
    current: Option<(InvocationId, NodeId)>,
    /// Constant v-nodes are shared per distinct value (§3.2: "if a node
    /// for this value does not exist already") — but only *within* one
    /// module invocation: a constant shared across invocations would be
    /// hidden by one module's ZoomOut while other modules' tensors still
    /// reference it.
    const_nodes: HashMap<(Option<InvocationId>, Value), NodeId>,
}

impl Default for GraphTracker {
    fn default() -> Self {
        GraphTracker {
            graph: ProvGraph::unindexed(0),
            current: None,
            const_nodes: HashMap::new(),
        }
    }
}

impl GraphTracker {
    /// Fresh tracker with an empty graph.
    pub fn new() -> Self {
        GraphTracker::default()
    }

    /// Finish tracking and take the graph, successor index built. The
    /// node table and pred buffer keep their growth capacity: trimming
    /// them would reallocate a run's largest buffers to save at most
    /// half of each.
    pub fn finish(self) -> ProvGraph {
        let mut graph = self.graph;
        graph.index_successors();
        graph
    }

    /// The graph as tracked: preds only, no successor index built.
    pub(crate) fn into_graph(self) -> ProvGraph {
        self.graph
    }

    /// Read-only access to the graph under construction.
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// Mutable access (crate-internal: used by shard absorption).
    pub(crate) fn graph_mut(&mut self) -> &mut ProvGraph {
        &mut self.graph
    }

    /// Role for operation nodes created at this point of execution.
    fn op_role(&self) -> Role {
        match self.current {
            Some((inv, _)) => Role::Intermediate(inv),
            None => Role::Free,
        }
    }

    fn add_op(&mut self, kind: NodeKind, preds: &[NodeId]) -> NodeId {
        let role = self.op_role();
        let id = self.graph.add_node(kind, role);
        self.graph.add_edges(preds, id);
        id
    }

    fn const_node(&mut self, value: &Value) -> NodeId {
        let inv = self.current.map(|(i, _)| i);
        if let Some(&id) = self.const_nodes.get(&(inv, value.clone())) {
            return id;
        }
        let role = self.op_role();
        let id = self.graph.add_node(
            NodeKind::Const {
                value: value.clone(),
            },
            role,
        );
        self.const_nodes.insert((inv, value.clone()), id);
        id
    }
}

impl Tracker for GraphTracker {
    type Ref = NodeId;
    const TRACKING: bool = true;

    fn base(&mut self, token: &str) -> NodeId {
        let role = self.op_role();
        self.graph.add_node(
            NodeKind::BaseTuple {
                token: Token::new(token),
            },
            role,
        )
    }

    fn plus(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Plus, parts)
    }

    fn times(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Times, parts)
    }

    fn delta(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Delta, parts)
    }

    fn agg(&mut self, op: AggOp, items: &[(NodeId, AggItemValue<NodeId>)]) -> NodeId {
        let role = self.op_role();
        let op_node = self.graph.add_node(NodeKind::AggResult { op }, role);
        let tensors: Vec<NodeId> = items
            .iter()
            .map(|(prov, value)| {
                let value_node = match value {
                    AggItemValue::Const(v) => self.const_node(v),
                    AggItemValue::Node(n) => *n,
                };
                let tensor = self.graph.add_node(NodeKind::Tensor, role);
                let preds = [*prov, value_node];
                let distinct = if value_node == *prov { 1 } else { 2 };
                self.graph.add_edges(&preds[..distinct], tensor);
                tensor
            })
            .collect();
        // The op node's preds in one span, now that its tensors exist.
        self.graph.add_edges(&tensors, op_node);
        op_node
    }

    fn blackbox(&mut self, name: &str, inputs: &[NodeId], is_value: bool) -> NodeId {
        self.add_op(
            NodeKind::BlackBox {
                name: name.to_string(),
                is_value,
            },
            inputs,
        )
    }

    fn workflow_input(&mut self, token: &str) -> NodeId {
        self.graph.add_node(
            NodeKind::WorkflowInput {
                token: Token::new(token),
            },
            Role::WorkflowInput,
        )
    }

    fn begin_invocation(&mut self, module: &str, execution: u32) -> NodeId {
        debug_assert!(
            self.current.is_none(),
            "begin_invocation while an invocation is already current"
        );
        let (inv, m_node) = self.graph.add_invocation(module, execution);
        self.current = Some((inv, m_node));
        m_node
    }

    fn end_invocation(&mut self) {
        debug_assert!(self.current.is_some(), "end_invocation without begin");
        self.current = None;
    }

    fn module_input(&mut self, tuple: NodeId) -> NodeId {
        let (inv, m_node) = self.current.expect("module_input outside invocation");
        let id = self
            .graph
            .add_node(NodeKind::ModuleInput, Role::ModuleInput(inv));
        self.graph.add_edges(&[tuple, m_node], id);
        id
    }

    fn module_output(&mut self, tuple: NodeId, vrefs: &[NodeId]) -> NodeId {
        let (inv, m_node) = self.current.expect("module_output outside invocation");
        let id = self
            .graph
            .add_node(NodeKind::ModuleOutput, Role::ModuleOutput(inv));
        self.graph.add_edges(&[tuple, m_node], id);
        self.graph.add_edges(vrefs, id);
        id
    }

    fn state_node(&mut self, tuple: NodeId) -> NodeId {
        let (inv, m_node) = self.current.expect("state_node outside invocation");
        let id = self.graph.add_node(NodeKind::StateUnit, Role::State(inv));
        self.graph.add_edges(&[tuple, m_node], id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tracker_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoTracker>(), 0);
        assert_eq!(std::mem::size_of::<<NoTracker as Tracker>::Ref>(), 0);
    }

    #[test]
    fn graph_tracker_builds_projection_chain() {
        let mut t = GraphTracker::new();
        let a = t.base("a");
        let b = t.base("b");
        let p = t.plus(&[a, b]);
        let g = t.finish();
        assert_eq!(g.expr_of(p).to_string(), "a + b");
    }

    #[test]
    fn const_nodes_are_shared() {
        let mut t = GraphTracker::new();
        let a = t.base("a");
        let b = t.base("b");
        t.agg(
            AggOp::Sum,
            &[
                (a, AggItemValue::Const(Value::Int(5))),
                (b, AggItemValue::Const(Value::Int(5))),
            ],
        );
        let g = t.finish();
        let consts = g
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Const { .. }))
            .count();
        assert_eq!(consts, 1, "equal values share one const v-node");
    }

    #[test]
    fn invocation_tagging() {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let m = t.begin_invocation("Mdealer1", 0);
        let i = t.module_input(wi);
        let mid = t.plus(&[i]);
        let o = t.module_output(mid, &[]);
        t.end_invocation();
        let g = t.finish();
        let inv = g.invocations_of("Mdealer1")[0];
        assert_eq!(g.node(m).role, Role::Invocation(inv));
        assert_eq!(g.node(i).role, Role::ModuleInput(inv));
        assert_eq!(g.node(mid).role, Role::Intermediate(inv));
        assert_eq!(g.node(o).role, Role::ModuleOutput(inv));
        assert_eq!(g.node(wi).role, Role::WorkflowInput);
        // the output's provenance mentions tuple, module, input
        let expr = g.expr_of(o).to_string();
        assert!(expr.contains("I1"));
        assert!(expr.contains("Mdealer1"));
    }

    #[test]
    fn state_nodes_connect_tuple_and_module() {
        let mut t = GraphTracker::new();
        let c2 = t.base("C2");
        t.begin_invocation("Mdealer1", 0);
        let s = t.state_node(c2);
        t.end_invocation();
        let g = t.finish();
        assert_eq!(g.node(s).preds().len(), 2);
        assert!(matches!(g.node(s).kind, NodeKind::StateUnit));
    }

    #[test]
    fn agg_with_vnode_item() {
        let mut t = GraphTracker::new();
        let a = t.base("a");
        let bb = t.blackbox("calcBid", &[a], true);
        let agg = t.agg(AggOp::Min, &[(a, AggItemValue::Node(bb))]);
        let g = t.finish();
        // tensor has two preds: a and the BB v-node
        let tensor = g
            .iter()
            .find(|(_, n)| matches!(n.kind, NodeKind::Tensor))
            .unwrap()
            .0;
        assert_eq!(g.node(tensor).preds().len(), 2);
        assert_eq!(g.node(agg).preds().len(), 1);
    }
}
