//! Graphviz (DOT) export of provenance graphs.
//!
//! Rendering conventions follow the paper's Figure 2(a) legend: p-nodes
//! are ellipses, v-nodes are boxes, module invocation nodes are bold,
//! zoomed-out composites are rounded rectangles. Only visible nodes are
//! exported, so exporting after ZoomOut / deletion shows the transformed
//! graph.

use std::fmt::Write as _;

use super::node::{NodeId, NodeKind};
use super::ProvGraph;

/// Render the visible part of the graph as a DOT digraph.
pub fn to_dot(graph: &ProvGraph, name: &str) -> String {
    let members: Vec<NodeId> = graph.iter_visible().map(|(id, _)| id).collect();
    to_dot_induced(graph, name, &members)
}

/// Render the subgraph induced by `members` (visible nodes only; edges
/// are kept when both endpoints are in the set). Query results —
/// subgraph extractions, bounded traversals, ProQL node sets — render
/// through this so they stay viewable in Graphviz.
pub fn to_dot_induced(graph: &ProvGraph, name: &str, members: &[NodeId]) -> String {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
    let in_set = |id: NodeId| members.binary_search(&id).is_ok();
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
    let _ = writeln!(out, "  rankdir=BT;");
    for &id in members {
        let node = graph.node(id);
        if !node.is_visible() {
            continue;
        }
        let label = escape(&node.kind.label());
        let (shape, extra) = match &node.kind {
            NodeKind::Invocation => ("ellipse", ", style=bold"),
            NodeKind::Zoomed { .. } => ("box", ", style=rounded"),
            k if k.is_value_node() => ("box", ""),
            NodeKind::WorkflowInput { .. } => ("ellipse", ", style=filled, fillcolor=lightgrey"),
            _ => ("ellipse", ""),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}: {}\", shape={}{}];",
            id.0, id, label, shape, extra
        );
    }
    for &id in members {
        let node = graph.node(id);
        if !node.is_visible() {
            continue;
        }
        for &succ in node.succs() {
            if graph.node(succ).is_visible() && in_set(succ) {
                let _ = writeln!(out, "  n{} -> n{};", id.0, succ.0);
            }
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        let dot = to_dot(&g, "test");
        assert!(dot.starts_with("digraph \"test\""));
        assert!(dot.contains("n0 ->"));
        assert!(dot.contains(&format!("n{} [label=", p.0)));
        assert_eq!(dot.matches("->").count(), 2);
    }

    #[test]
    fn hidden_nodes_are_not_exported() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p = g.add_plus(&[a]);
        g.set_node_deleted(p, true);
        let dot = to_dot(&g, "t");
        assert!(!dot.contains("->"));
    }

    #[test]
    fn quotes_are_escaped() {
        let mut g = ProvGraph::new();
        g.add_base("to\"ken");
        let dot = to_dot(&g, "t");
        assert!(dot.contains("to\\\"ken"));
    }

    #[test]
    fn induced_render_keeps_only_in_set_edges() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        // Exclude b: its node and its edge to p must not appear.
        let dot = to_dot_induced(&g, "t", &[a, p]);
        assert!(dot.contains(&format!("n{} -> n{}", a.0, p.0)));
        assert!(!dot.contains(&format!("n{} [", b.0)));
        assert!(!dot.contains(&format!("n{} ->", b.0)));
    }
}
