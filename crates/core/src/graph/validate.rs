//! Validation: Definition 4.1 as an executable specification.
//!
//! The production ZoomOut uses the O(1)-per-node `Role` tags assigned at
//! construction time. This module implements the paper's *definitional*
//! characterization of an invocation's intermediate computation —
//! reachability from the invocation's input/state nodes without crossing
//! an output node — so tests (and the `ablation_zoom` bench) can check
//! that the two coincide.

use std::collections::VecDeque;

use super::bitset::BitSet;
use super::node::{InvocationId, NodeId, NodeKind, Role};
use super::ProvGraph;

/// Compute the intermediate-computation node set of `inv` per
/// Definition 4.1: nodes `v` with a directed path from an input or state
/// node of the invocation (or transitively from intermediate v-nodes)
/// such that no output node occurs on the path (including `v` itself).
pub fn intermediate_nodes_by_definition(graph: &ProvGraph, inv: InvocationId) -> Vec<NodeId> {
    let mut seeds: Vec<NodeId> = Vec::new();
    for (id, node) in graph.iter_visible() {
        match node.role {
            Role::ModuleInput(i) | Role::State(i) if i == inv => seeds.push(id),
            _ => {}
        }
    }
    // BFS forward from seeds; do not traverse through output nodes; the
    // seeds themselves are not intermediate (v ≠ v₀).
    let mut reached = BitSet::new(graph.len());
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for s in &seeds {
        for &succ in graph.node(*s).succs() {
            enqueue(graph, succ, &mut reached, &mut queue);
        }
    }
    let mut out = Vec::new();
    while let Some(v) = queue.pop_front() {
        out.push(v);
        for &succ in graph.node(v).succs() {
            enqueue(graph, succ, &mut reached, &mut queue);
        }
    }
    // Clause (iii) closure for source v-nodes: a constant v-node has no
    // incoming edges, so forward reachability misses it — but it *is*
    // part of the intermediate computation when everything it feeds is
    // (e.g. the value node of an aggregation tensor).
    let snapshot = out.clone();
    for v in snapshot {
        for &p in graph.node(v).preds() {
            let pn = graph.node(p);
            if reached.contains(p.index()) || !pn.is_visible() {
                continue;
            }
            if pn.preds().is_empty()
                && pn.kind.is_value_node()
                && pn
                    .succs()
                    .iter()
                    .filter(|s| graph.node(**s).is_visible())
                    .all(|s| reached.contains(s.index()))
            {
                reached.insert(p.index());
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn enqueue(graph: &ProvGraph, v: NodeId, reached: &mut BitSet, queue: &mut VecDeque<NodeId>) {
    let node = graph.node(v);
    if !node.is_visible() {
        return;
    }
    // Condition (2): no output node on the path, including v itself.
    // Module input and state nodes also terminate the walk: they are the
    // boundary of a (possibly later) invocation, not internals of this
    // one. Cross-invocation edges exist because a module's new state
    // tuples keep the provenance of the intermediate nodes that derived
    // them, and the next invocation wraps those nodes in fresh `s` nodes
    // — the walk must not continue through that boundary (a clarifying
    // interpretation of Def. 4.1 for shared state).
    if matches!(
        node.kind,
        NodeKind::ModuleOutput | NodeKind::ModuleInput | NodeKind::StateUnit
    ) {
        return;
    }
    if reached.insert(v.index()) {
        queue.push_back(v);
    }
}

/// Check that role tags agree with the definitional characterization for
/// every invocation. Returns a human-readable description of the first
/// mismatch.
pub fn check_intermediate_tags(graph: &ProvGraph) -> Result<(), String> {
    for (idx, _) in graph.invocations().iter().enumerate() {
        let inv = InvocationId(idx as u32);
        let by_def = intermediate_nodes_by_definition(graph, inv);
        let mut by_tag: Vec<NodeId> = graph
            .iter_visible()
            .filter(|(_, n)| n.role == Role::Intermediate(inv))
            .map(|(id, _)| id)
            .collect();
        by_tag.sort();
        if by_def != by_tag {
            return Err(format!(
                "invocation {inv} ({}): definition gives {:?}, tags give {:?}",
                graph.invocation(inv).module,
                by_def,
                by_tag
            ));
        }
    }
    Ok(())
}

/// Structural sanity: adjacency lists are symmetric and reference valid
/// ids; no self-loops; the maintained visible count matches the arena.
pub fn check_structure(graph: &ProvGraph) -> Result<(), String> {
    let (counted, swept) = (graph.visible_count(), graph.iter_visible().count());
    if counted != swept {
        return Err(format!(
            "visible count {counted} but {swept} visible nodes in the arena"
        ));
    }
    for (id, node) in graph.iter() {
        for &p in node.preds() {
            if p.index() >= graph.len() {
                return Err(format!("{id} has out-of-range pred {p}"));
            }
            if p == id {
                return Err(format!("{id} has a self-loop"));
            }
            if !graph.node(p).succs().contains(&id) {
                return Err(format!("edge {p}→{id} missing forward direction"));
            }
        }
        for &s in node.succs() {
            if !graph.node(s).preds().contains(&id) {
                return Err(format!("edge {id}→{s} missing backward direction"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tracker::{GraphTracker, Tracker};

    fn small_invocation_graph() -> ProvGraph {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        t.begin_invocation("M", 0);
        let i = t.module_input(wi);
        let s = t.state_node(c2);
        let join = t.times(&[i, s]);
        let proj = t.plus(&[join]);
        t.module_output(proj, &[]);
        t.end_invocation();
        t.finish()
    }

    #[test]
    fn definition_matches_tags_on_small_graph() {
        let g = small_invocation_graph();
        check_intermediate_tags(&g).unwrap();
    }

    #[test]
    fn definition_excludes_io_and_downstream() {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        t.begin_invocation("A", 0);
        let i = t.module_input(wi);
        let mid = t.plus(&[i]);
        let o = t.module_output(mid, &[]);
        t.end_invocation();
        t.begin_invocation("B", 0);
        let i2 = t.module_input(o);
        let mid2 = t.plus(&[i2]);
        t.module_output(mid2, &[]);
        t.end_invocation();
        let g = t.finish();
        let inv_a = g.invocations_of("A")[0];
        let nodes = intermediate_nodes_by_definition(&g, inv_a);
        // Only `mid` is intermediate for A — the walk stops at A's output
        // and never reaches B's internals.
        assert_eq!(nodes, vec![mid]);
        check_intermediate_tags(&g).unwrap();
    }

    #[test]
    fn structure_check_passes_for_tracker_built_graphs() {
        let g = small_invocation_graph();
        check_structure(&g).unwrap();
    }
}
