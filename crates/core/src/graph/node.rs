//! Provenance graph nodes.

use std::fmt;

use lipstick_nrel::Value;

use crate::agg::AggOp;
use crate::semiring::Token;

/// Index of a node in the graph arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifier of one module invocation (a module executes once per
/// workflow execution phase; the same module may be invoked many times
/// over a sequence of executions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u32);

impl InvocationId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InvocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv{}", self.0)
    }
}

/// Reserved stash index marking a *retired* zoom composite: a
/// tombstoned `Zoomed` node whose stash has been taken back by ZoomIn.
/// ZoomOut never allocates this index (it errors first), so
/// `Zoomed { stash: RETIRED_STASH }` unambiguously means "retired" —
/// both in memory and in the on-disk codec's sentinel tag.
pub const RETIRED_STASH: u32 = u32::MAX;

/// What a node *is* — the legend of the paper's Figure 2(a).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Workflow input tuple (type "i" at workflow level; `N00`/`I1` in
    /// the paper). A p-node source labelled with its token.
    WorkflowInput { token: Token },
    /// Module invocation node (type "m").
    Invocation,
    /// Module input node (type "i"): `·` of the tuple's provenance and
    /// the invocation node.
    ModuleInput,
    /// Module output node (type "o").
    ModuleOutput,
    /// Module state node (type "s"): `·` of the state tuple's provenance
    /// and the invocation node.
    StateUnit,
    /// Base tuple p-node: an input/state tuple with no recorded
    /// derivation, labelled by its token (`C2`, `C3`, …).
    BaseTuple { token: Token },
    /// Semiring `+` (alternative derivation: projection, union).
    Plus,
    /// Semiring `·` (joint derivation: join, flatten).
    Times,
    /// δ duplicate elimination (GROUP / COGROUP / DISTINCT). Incoming
    /// edges come directly from the group members (the paper's shorthand
    /// for δ over their sum).
    Delta,
    /// Aggregation operation v-node (labelled `Count`, `Sum`, …).
    AggResult { op: AggOp },
    /// `⊗` tensor v-node pairing a value with a provenance annotation.
    Tensor,
    /// Constant / attribute value v-node.
    Const { value: Value },
    /// Black-box (UDF) invocation; `is_value` distinguishes v-node
    /// results (e.g. `calcBid`'s amount) from p-node results.
    BlackBox { name: String, is_value: bool },
    /// Zoomed-out module invocation: the composite node created by
    /// ZoomOut, standing for the module's hidden internals. `stash`
    /// indexes the graph's stash table for ZoomIn restoration.
    Zoomed { stash: u32 },
}

impl NodeKind {
    /// v-nodes carry values; p-nodes carry provenance (paper §3.1).
    pub fn is_value_node(&self) -> bool {
        matches!(
            self,
            NodeKind::AggResult { .. }
                | NodeKind::Tensor
                | NodeKind::Const { .. }
                | NodeKind::BlackBox { is_value: true, .. }
        )
    }

    /// Nodes whose derivation is *joint* (·/⊗-like): deletion of any
    /// ingredient deletes the node (Def. 4.2 rule 2). Black boxes are
    /// joint because each output (coarsely) depends on all inputs; the
    /// zoomed composite node likewise models the coarse-grained
    /// "output depends on all inputs" reading.
    pub fn is_joint(&self) -> bool {
        matches!(
            self,
            NodeKind::Times
                | NodeKind::Tensor
                | NodeKind::ModuleInput
                | NodeKind::ModuleOutput
                | NodeKind::StateUnit
                | NodeKind::BlackBox { .. }
                | NodeKind::Zoomed { .. }
        )
    }

    /// Every kind name ([`NodeKind::name`]), sorted; a kind's position
    /// here is its [`NodeKind::ordinal`].
    pub const NAMES: [&'static str; 14] = [
        "agg",
        "base_tuple",
        "blackbox",
        "const",
        "delta",
        "invocation",
        "module_input",
        "module_output",
        "plus",
        "state",
        "tensor",
        "times",
        "workflow_input",
        "zoomed",
    ];

    /// The kind's index into [`NodeKind::NAMES`] — a dense tag for
    /// per-kind tables, read without touching a string.
    pub fn ordinal(&self) -> usize {
        match self {
            NodeKind::AggResult { .. } => 0,
            NodeKind::BaseTuple { .. } => 1,
            NodeKind::BlackBox { .. } => 2,
            NodeKind::Const { .. } => 3,
            NodeKind::Delta => 4,
            NodeKind::Invocation => 5,
            NodeKind::ModuleInput => 6,
            NodeKind::ModuleOutput => 7,
            NodeKind::Plus => 8,
            NodeKind::StateUnit => 9,
            NodeKind::Tensor => 10,
            NodeKind::Times => 11,
            NodeKind::WorkflowInput { .. } => 12,
            NodeKind::Zoomed { .. } => 13,
        }
    }

    /// Stable textual name of the kind, used by statistics breakdowns
    /// and ProQL `kind = '…'` predicates.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.ordinal()]
    }

    /// Short label for display / DOT export.
    pub fn label(&self) -> String {
        match self {
            NodeKind::WorkflowInput { token } => format!("I:{token}"),
            NodeKind::Invocation => "m".into(),
            NodeKind::ModuleInput => "i:·".into(),
            NodeKind::ModuleOutput => "o:·".into(),
            NodeKind::StateUnit => "s:·".into(),
            NodeKind::BaseTuple { token } => token.to_string(),
            NodeKind::Plus => "+".into(),
            NodeKind::Times => "·".into(),
            NodeKind::Delta => "δ".into(),
            NodeKind::AggResult { op } => op.name().into(),
            NodeKind::Tensor => "⊗".into(),
            NodeKind::Const { value } => value.to_string(),
            NodeKind::BlackBox { name, .. } => name.clone(),
            NodeKind::Zoomed { .. } => "zoom".into(),
        }
    }
}

/// Which part of the workflow owns a node — used by ZoomOut to find a
/// module invocation's intermediate computation in O(1) per node (the
/// tag provably coincides with the paper's Definition 4.1 reachability
/// characterization; see [`crate::graph::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Workflow-level input; survives every zoom.
    WorkflowInput,
    /// The `m` node of an invocation.
    Invocation(InvocationId),
    /// Module input node of an invocation.
    ModuleInput(InvocationId),
    /// Module output node of an invocation.
    ModuleOutput(InvocationId),
    /// State node of an invocation.
    State(InvocationId),
    /// Intermediate computation of an invocation (Def. 4.1).
    Intermediate(InvocationId),
    /// Zoom composite created by ZoomOut.
    Zoom(InvocationId),
    /// Not owned by any invocation (standalone Pig queries, initial
    /// state base tuples).
    Free,
}

impl Role {
    /// Stable textual name of the role, used by ProQL `role = '…'`
    /// predicates.
    pub fn name(&self) -> &'static str {
        match self {
            Role::WorkflowInput => "workflow_input",
            Role::Invocation(_) => "invocation",
            Role::ModuleInput(_) => "module_input",
            Role::ModuleOutput(_) => "module_output",
            Role::State(_) => "state",
            Role::Intermediate(_) => "intermediate",
            Role::Zoom(_) => "zoom",
            Role::Free => "free",
        }
    }

    /// The invocation this role is attached to, if any.
    #[inline]
    pub fn invocation(&self) -> Option<InvocationId> {
        match self {
            Role::Invocation(i)
            | Role::ModuleInput(i)
            | Role::ModuleOutput(i)
            | Role::State(i)
            | Role::Intermediate(i)
            | Role::Zoom(i) => Some(*i),
            Role::WorkflowInput | Role::Free => None,
        }
    }

    /// The same role with its invocation id shifted by `by` — how a
    /// fragment's nodes are re-based onto a graph whose invocation table
    /// already holds `by` entries.
    pub fn rebased(self, by: u32) -> Role {
        let shift = |InvocationId(i)| InvocationId(i + by);
        match self {
            Role::WorkflowInput | Role::Free => self,
            Role::Invocation(i) => Role::Invocation(shift(i)),
            Role::ModuleInput(i) => Role::ModuleInput(shift(i)),
            Role::ModuleOutput(i) => Role::ModuleOutput(shift(i)),
            Role::State(i) => Role::State(shift(i)),
            Role::Intermediate(i) => Role::Intermediate(shift(i)),
            Role::Zoom(i) => Role::Zoom(shift(i)),
        }
    }
}

/// A provenance graph node's slot in the node table: what it is, who
/// owns it, and its two visibility flags. Its edges live in the graph's
/// flat arrays; [`crate::graph::NodeRef`], the view `ProvGraph::node`
/// hands out, derefs to the slot and reads them.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub kind: NodeKind,
    pub role: Role,
    /// Tombstone set by deletion propagation or ZoomIn cleanup. Like
    /// `zoom_hidden`, written only by `ProvGraph`'s flip methods, which
    /// keep the graph's visible count in step.
    pub(in crate::graph) deleted: bool,
    /// Hidden by ZoomOut (restored by ZoomIn).
    pub(in crate::graph) zoom_hidden: bool,
}

impl Node {
    pub(crate) fn new(kind: NodeKind, role: Role) -> Self {
        Node {
            kind,
            role,
            deleted: false,
            zoom_hidden: false,
        }
    }

    /// Is the node part of the currently visible graph?
    #[inline]
    pub fn is_visible(&self) -> bool {
        !self.deleted && !self.zoom_hidden
    }

    /// Tombstoned by deletion propagation (or ZoomIn cleanup)?
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// Hidden by an active ZoomOut?
    pub fn is_zoom_hidden(&self) -> bool {
        self.zoom_hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    #[test]
    fn joint_kinds_match_paper_rule() {
        assert!(NodeKind::Times.is_joint());
        assert!(NodeKind::Tensor.is_joint());
        assert!(NodeKind::ModuleInput.is_joint());
        assert!(!NodeKind::Plus.is_joint());
        assert!(!NodeKind::Delta.is_joint());
        assert!(!NodeKind::AggResult { op: AggOp::Count }.is_joint());
    }

    #[test]
    fn value_node_classification() {
        assert!(NodeKind::Tensor.is_value_node());
        assert!(NodeKind::Const {
            value: Value::Int(1)
        }
        .is_value_node());
        assert!(NodeKind::BlackBox {
            name: "f".into(),
            is_value: true
        }
        .is_value_node());
        assert!(!NodeKind::BlackBox {
            name: "f".into(),
            is_value: false
        }
        .is_value_node());
        assert!(!NodeKind::Plus.is_value_node());
    }

    #[test]
    fn kind_names_are_sorted_and_indexed_by_ordinal() {
        // Sorted, because postings look a kind name up by binary search.
        assert!(NodeKind::NAMES.windows(2).all(|w| w[0] < w[1]));
        let token = || Token::new("t");
        for (kind, name) in [
            (NodeKind::AggResult { op: AggOp::Count }, "agg"),
            (NodeKind::BaseTuple { token: token() }, "base_tuple"),
            (
                NodeKind::BlackBox {
                    name: "f".into(),
                    is_value: false,
                },
                "blackbox",
            ),
            (
                NodeKind::Const {
                    value: Value::Int(1),
                },
                "const",
            ),
            (NodeKind::Delta, "delta"),
            (NodeKind::Invocation, "invocation"),
            (NodeKind::ModuleInput, "module_input"),
            (NodeKind::ModuleOutput, "module_output"),
            (NodeKind::Plus, "plus"),
            (NodeKind::StateUnit, "state"),
            (NodeKind::Tensor, "tensor"),
            (NodeKind::Times, "times"),
            (NodeKind::WorkflowInput { token: token() }, "workflow_input"),
            (NodeKind::Zoomed { stash: 0 }, "zoomed"),
        ] {
            assert_eq!(kind.name(), name);
        }
    }

    #[test]
    fn role_invocation_accessor() {
        assert_eq!(
            Role::Intermediate(InvocationId(3)).invocation(),
            Some(InvocationId(3))
        );
        assert_eq!(Role::Free.invocation(), None);
    }
}
