//! Shard trackers: provenance fragments built by parallel workers and
//! merged into a global graph.
//!
//! The paper's Hadoop experiment (§5.4, Figure 5(c)) runs modules on
//! parallel reducers; our substitute executes ready workflow modules on
//! worker threads. Each worker records provenance into its own
//! [`ShardTracker`]; when the module commits, the coordinator *absorbs*
//! the shard into the global [`GraphTracker`], remapping node ids.
//! References to pre-existing global nodes (a module's inputs and
//! state) are *imported* into the shard as placeholder nodes that
//! resolve back to their global ids on absorption, so cross-module
//! edges stay exact.

use std::collections::HashMap;

use crate::agg::AggOp;
use crate::graph::node::{NodeId, NodeKind};
use crate::graph::tracker::{AggItemValue, GraphTracker, Tracker};
use crate::graph::ProvGraph;

/// A worker-local tracker whose graph can be merged into a global one.
#[derive(Debug, Default)]
pub struct ShardTracker {
    inner: GraphTracker,
    /// local placeholder id → global id
    external: HashMap<NodeId, NodeId>,
    /// global id → local placeholder id (dedup imports)
    by_global: HashMap<NodeId, NodeId>,
}

impl ShardTracker {
    pub fn new() -> Self {
        ShardTracker::default()
    }

    /// Import a global node: returns a local placeholder id usable as a
    /// provenance ref inside this shard.
    pub fn import(&mut self, global: NodeId) -> NodeId {
        if let Some(&local) = self.by_global.get(&global) {
            return local;
        }
        let local = self.inner.base("@import");
        self.external.insert(local, global);
        self.by_global.insert(global, local);
        local
    }

    /// Number of non-placeholder nodes recorded so far.
    pub fn recorded(&self) -> usize {
        self.inner.graph().len() - self.external.len()
    }
}

impl Tracker for ShardTracker {
    type Ref = NodeId;
    const TRACKING: bool = true;

    fn base(&mut self, token: &str) -> NodeId {
        self.inner.base(token)
    }
    fn plus(&mut self, parts: &[NodeId]) -> NodeId {
        self.inner.plus(parts)
    }
    fn times(&mut self, parts: &[NodeId]) -> NodeId {
        self.inner.times(parts)
    }
    fn delta(&mut self, parts: &[NodeId]) -> NodeId {
        self.inner.delta(parts)
    }
    fn agg(&mut self, op: AggOp, items: &[(NodeId, AggItemValue<NodeId>)]) -> NodeId {
        self.inner.agg(op, items)
    }
    fn blackbox(&mut self, name: &str, inputs: &[NodeId], is_value: bool) -> NodeId {
        self.inner.blackbox(name, inputs, is_value)
    }
    fn workflow_input(&mut self, token: &str) -> NodeId {
        self.inner.workflow_input(token)
    }
    fn begin_invocation(&mut self, module: &str, execution: u32) -> NodeId {
        self.inner.begin_invocation(module, execution)
    }
    fn end_invocation(&mut self) {
        self.inner.end_invocation()
    }
    fn module_input(&mut self, tuple: NodeId) -> NodeId {
        self.inner.module_input(tuple)
    }
    fn module_output(&mut self, tuple: NodeId, vrefs: &[NodeId]) -> NodeId {
        self.inner.module_output(tuple, vrefs)
    }
    fn state_node(&mut self, tuple: NodeId) -> NodeId {
        self.inner.state_node(tuple)
    }
}

impl GraphTracker {
    /// Merge a shard's graph into this tracker's graph. Returns the
    /// remap table: `table[local.index()]` is the global id of each
    /// shard node (placeholders resolve to the nodes they imported).
    pub fn absorb_shard(&mut self, shard: ShardTracker) -> Vec<NodeId> {
        let ShardTracker {
            inner, external, ..
        } = shard;
        let local = inner.into_graph();
        self.graph_mut().absorb(&local, &external)
    }
}

impl ProvGraph {
    /// Append another graph's nodes (except placeholders listed in
    /// `external`), then their pred spans, remapping edges, roles, and
    /// invocations. Returns the local→global id table.
    ///
    /// Each absorbed node lists its ingredients by ascending shard id —
    /// the order encoded logs of module-parallel runs have always had —
    /// and each ingredient gains its dependents by ascending shard id.
    pub fn absorb(&mut self, other: &ProvGraph, external: &HashMap<NodeId, NodeId>) -> Vec<NodeId> {
        let inv_offset = self.invocations().len() as u32;
        let first_new = self.len();
        let mut remap: Vec<NodeId> = Vec::with_capacity(other.len());
        for (id, node) in other.nodes.iter().enumerate() {
            if let Some(&global) = external.get(&NodeId(id as u32)) {
                remap.push(global);
                continue;
            }
            debug_assert!(
                !matches!(node.kind, NodeKind::Zoomed { .. }),
                "shards must not contain zoom nodes"
            );
            remap.push(self.add_node(node.kind.clone(), node.role.rebased(inv_offset)));
        }
        let mut preds: Vec<NodeId> = Vec::new();
        for (local, &global) in remap.iter().enumerate() {
            if global.index() < first_new {
                continue; // a placeholder
            }
            preds.clear();
            preds.extend_from_slice(other.preds.list(local));
            preds.sort_unstable();
            preds.iter_mut().for_each(|p| *p = remap[p.index()]);
            self.add_edges(&preds, global);
        }
        for info in other.invocations() {
            self.register_invocation(
                info.module.clone(),
                info.execution,
                remap[info.m_node.index()],
            );
        }
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::node::{InvocationId, Role};
    use crate::graph::validate::check_structure;

    #[test]
    fn import_dedups() {
        let mut global = GraphTracker::new();
        let g0 = global.base("g0");
        let mut shard = ShardTracker::new();
        let a = shard.import(g0);
        let b = shard.import(g0);
        assert_eq!(a, b);
        assert_eq!(shard.recorded(), 0);
    }

    #[test]
    fn absorb_rewires_external_edges() {
        let mut global = GraphTracker::new();
        let g0 = global.base("g0");
        let g1 = global.base("g1");

        let mut shard = ShardTracker::new();
        let i0 = shard.import(g0);
        let i1 = shard.import(g1);
        shard.begin_invocation("M", 0);
        let wrapped = shard.module_input(i0);
        let join = shard.times(&[wrapped, i1]);
        let out = shard.module_output(join, &[]);
        shard.end_invocation();

        let remap = global.absorb_shard(shard);
        let out_global = remap[out.index()];
        let g = global.finish();
        check_structure(&g).unwrap();
        let expr = g.expr_of(out_global).to_string();
        assert!(expr.contains("g0"), "expr: {expr}");
        assert!(expr.contains("g1"), "expr: {expr}");
        assert!(expr.contains("M#0"), "expr: {expr}");
        // no placeholder leaked into the global graph
        assert!(!g.iter().any(
            |(_, n)| matches!(&n.kind, NodeKind::BaseTuple { token } if token.as_str() == "@import")
        ));
    }

    #[test]
    fn absorb_offsets_invocations() {
        let mut global = GraphTracker::new();
        global.begin_invocation("First", 0);
        global.end_invocation();

        let mut shard = ShardTracker::new();
        shard.begin_invocation("Second", 3);
        shard.end_invocation();

        global.absorb_shard(shard);
        let g = global.finish();
        assert_eq!(g.invocations().len(), 2);
        assert_eq!(g.invocation(InvocationId(1)).module, "Second");
        assert_eq!(g.invocation(InvocationId(1)).execution, 3);
        // the m node's role points at the remapped invocation
        let m = g.invocation(InvocationId(1)).m_node;
        assert_eq!(g.node(m).role, Role::Invocation(InvocationId(1)));
    }

    #[test]
    fn two_shards_absorb_independently() {
        let mut global = GraphTracker::new();
        let g0 = global.base("shared");
        let mut results = Vec::new();
        for k in 0..2 {
            let mut shard = ShardTracker::new();
            let i = shard.import(g0);
            shard.begin_invocation("M", k);
            let w = shard.module_input(i);
            let o = shard.module_output(w, &[]);
            shard.end_invocation();
            let remap = global.absorb_shard(shard);
            results.push(remap[o.index()]);
        }
        let g = global.finish();
        check_structure(&g).unwrap();
        assert_eq!(g.invocations_of("M").len(), 2);
        // both outputs trace back to the shared base
        for o in results {
            assert!(g.expr_of(o).to_string().contains("shared"));
        }
        // the shared node now has two i-node successors
        let g0_node = g
            .iter()
            .find(|(_, n)| matches!(&n.kind, NodeKind::BaseTuple { token } if token.as_str() == "shared"))
            .unwrap()
            .0;
        assert_eq!(g.node(g0_node).succs().len(), 2);
    }
}
