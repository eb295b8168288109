//! Graph statistics.
//!
//! Behind ProQL's `STATS` on a resident graph and the graph summaries
//! the `experiments` binary prints beside its figure tables.

use std::collections::BTreeMap;

use super::ProvGraph;

/// Node/edge counts of the visible graph, broken down by node kind.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub p_nodes: usize,
    pub v_nodes: usize,
    pub by_kind: BTreeMap<&'static str, usize>,
}

/// Compute statistics over the visible graph.
pub fn stats(graph: &ProvGraph) -> GraphStats {
    let mut s = GraphStats {
        edges: graph.visible_edge_count(),
        ..GraphStats::default()
    };
    for (_, node) in graph.iter_visible() {
        s.nodes += 1;
        if node.kind.is_value_node() {
            s.v_nodes += 1;
        } else {
            s.p_nodes += 1;
        }
        *s.by_kind.entry(node.kind.name()).or_insert(0) += 1;
    }
    s
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} nodes ({} p-nodes, {} v-nodes), {} edges",
            self.nodes, self.p_nodes, self.v_nodes, self.edges
        )?;
        for (kind, count) in &self.by_kind {
            writeln!(f, "  {kind:>16}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggOp;
    use lipstick_nrel::Value;

    #[test]
    fn counts_by_kind() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        g.add_agg(AggOp::Count, &[(p, Value::Int(1))]);
        let s = stats(&g);
        assert_eq!(s.by_kind["base_tuple"], 2);
        assert_eq!(s.by_kind["plus"], 1);
        assert_eq!(s.by_kind["agg"], 1);
        assert_eq!(s.by_kind["tensor"], 1);
        assert_eq!(s.by_kind["const"], 1);
        assert_eq!(s.v_nodes, 3);
        assert_eq!(s.p_nodes, 3);
        assert_eq!(s.nodes, 6);
        // edges: a→p, b→p, p→tensor, const→tensor, tensor→agg
        assert_eq!(s.edges, 5);
    }

    #[test]
    fn stats_ignore_deleted() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        g.set_node_deleted(a, true);
        assert_eq!(stats(&g).nodes, 0);
    }
}
