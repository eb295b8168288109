//! Subgraph queries (paper §5.1).
//!
//! "A subgraph query takes a node id as input and returns a subgraph
//! that includes all ancestors and descendants of the node, along with
//! all siblings of its descendants." Siblings of a node d are the other
//! successors of d's predecessors (nodes sharing a parent with d) — they
//! expose the alternative/joint derivations that the node's descendants
//! participate in, which is what dependency analysis inspects.
//!
//! Besides the paper's all-depth query, this module exposes the
//! traversal machinery the ProQL planner composes: [`traverse`] is a
//! bounded-depth sweep with a collect-filter hook (so planners can push
//! predicates into the walk instead of post-filtering) that reports how
//! many nodes it visited — the planner's unit of work.

use std::collections::VecDeque;
use std::fmt;

use crate::graph::bitset::BitSet;
use crate::graph::node::NodeId;
use crate::graph::ProvGraph;
use crate::store::GraphStore;

use super::error::QueryError;

/// Result of a subgraph query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphResult {
    /// All nodes of the subgraph (root, ancestors, descendants,
    /// siblings of descendants), ascending by id.
    pub nodes: Vec<NodeId>,
    /// Number of ancestors of the root (root excluded).
    pub ancestor_count: usize,
    /// Number of descendants of the root (root excluded).
    pub descendant_count: usize,
}

impl SubgraphResult {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }

    /// Render the induced subgraph as Graphviz DOT (see
    /// [`crate::graph::dot::to_dot_induced`]).
    pub fn to_dot(&self, graph: &ProvGraph, name: &str) -> String {
        crate::graph::dot::to_dot_induced(graph, name, &self.nodes)
    }
}

impl fmt::Display for SubgraphResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subgraph of {} nodes ({} ancestors, {} descendants)",
            self.nodes.len(),
            self.ancestor_count,
            self.descendant_count
        )?;
        for chunk in self.nodes.chunks(16) {
            write!(f, "\n  ")?;
            for (i, id) in chunk.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{id}")?;
            }
        }
        Ok(())
    }
}

/// Which way a [`traverse`] walks the provenance DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow ingredient edges backwards (towards sources).
    Ancestors,
    /// Follow dependent edges forwards (towards sinks).
    Descendants,
}

/// Work done by one traversal — the planner's cost feedback signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Visible nodes dequeued during the sweep (root included).
    pub visited: usize,
}

/// Result of a bounded-depth ancestor/descendant query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedResult {
    pub root: NodeId,
    pub direction: Direction,
    /// Depth bound the query ran with (`None` = unbounded).
    pub depth: Option<u32>,
    /// Collected nodes, ascending by id; the root is excluded.
    pub nodes: Vec<NodeId>,
    pub stats: TraversalStats,
}

impl BoundedResult {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }

    /// Render the result (plus its root) as Graphviz DOT.
    pub fn to_dot(&self, graph: &ProvGraph, name: &str) -> String {
        let mut nodes = self.nodes.clone();
        if let Err(pos) = nodes.binary_search(&self.root) {
            nodes.insert(pos, self.root);
        }
        crate::graph::dot::to_dot_induced(graph, name, &nodes)
    }
}

impl fmt::Display for BoundedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.direction {
            Direction::Ancestors => "ancestors",
            Direction::Descendants => "descendants",
        };
        match self.depth {
            Some(d) => write!(f, "{} {what} of {} within depth {d}", self.len(), self.root)?,
            None => write!(f, "{} {what} of {}", self.len(), self.root)?,
        }
        for chunk in self.nodes.chunks(16) {
            write!(f, "\n  ")?;
            for (i, id) in chunk.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{id}")?;
            }
        }
        Ok(())
    }
}

/// Breadth-first sweep from `root` over visible nodes, at most `depth`
/// edges deep (`None` = unbounded). Every visible node reached is
/// *visited* (and counted in the stats); only those passing `collect`
/// are returned. The root itself is visited but never collected.
///
/// This is the traversal primitive planners build on: pushing a filter
/// into `collect` avoids materialising the unfiltered set, and the
/// visited count exposes the true work done for cost comparisons. The
/// callback receives only the id — asking the store for kind or role is
/// what makes a paged walk fault records *only* when the filter needs
/// them.
pub fn traverse<S: GraphStore + ?Sized>(
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
        for &n in next.iter() {
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

/// Ancestors of `root` within `depth` edges (`None` = all).
pub fn ancestors_bounded<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
    depth: Option<u32>,
) -> Result<BoundedResult, QueryError> {
    let (nodes, stats) = traverse(store, root, Direction::Ancestors, depth, |_| true)?;
    Ok(BoundedResult {
        root,
        direction: Direction::Ancestors,
        depth,
        nodes,
        stats,
    })
}

/// Descendants of `root` within `depth` edges (`None` = all).
pub fn descendants_bounded<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
    depth: Option<u32>,
) -> Result<BoundedResult, QueryError> {
    let (nodes, stats) = traverse(store, root, Direction::Descendants, depth, |_| true)?;
    Ok(BoundedResult {
        root,
        direction: Direction::Descendants,
        depth,
        nodes,
        stats,
    })
}

/// Run a subgraph query from `root`.
pub fn subgraph<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
) -> Result<SubgraphResult, QueryError> {
    let (ancestors, _) = traverse(store, root, Direction::Ancestors, None, |_| true)?;
    let (descendants, _) = traverse(store, root, Direction::Descendants, None, |_| true)?;
    let mut members = BitSet::new(store.node_count());
    members.insert(root.index());
    for id in ancestors.iter().chain(&descendants) {
        members.insert(id.index());
    }

    // Siblings of descendants: other successors of each descendant's
    // visible predecessors, each parent expanded once however many
    // descendants share it. The root's own siblings are not included
    // (the paper scopes siblings to descendants).
    let mut parents_done = BitSet::new(store.node_count());
    for d in &descendants {
        for &p in store.preds_of(*d).iter() {
            if !store.is_visible(p) || !parents_done.insert(p.index()) {
                continue;
            }
            for &sib in store.succs_of(p).iter() {
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

/// The ancestor set only (used by the §5.5 fine-grainedness analysis:
/// which base/state tuples does an output depend on?).
pub fn ancestors<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
) -> Result<Vec<NodeId>, QueryError> {
    traverse(store, root, Direction::Ancestors, None, |_| true).map(|(nodes, _)| nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond with a sibling branch:
    ///
    /// ```text
    ///   a   b     c
    ///    \ /      |
    ///     t       p   (p is a sibling-input relative of nothing here)
    ///    / \
    ///   u   w     (u, w descendants of t; c→p separate component)
    /// ```
    fn diamond() -> (ProvGraph, [NodeId; 7]) {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let c = g.add_base("c");
        let t = g.add_times(&[a, b]);
        let u = g.add_plus(&[t]);
        let w = g.add_plus(&[t]);
        let p = g.add_plus(&[c]);
        (g, [a, b, c, t, u, w, p])
    }

    #[test]
    fn subgraph_of_mid_node() {
        let (g, [a, b, c, t, u, w, p]) = diamond();
        let r = subgraph(&g, t).unwrap();
        assert!(r.contains(a) && r.contains(b), "ancestors");
        assert!(r.contains(u) && r.contains(w), "descendants");
        assert!(!r.contains(c) && !r.contains(p), "unrelated component");
        assert_eq!(r.ancestor_count, 2);
        assert_eq!(r.descendant_count, 2);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn siblings_of_descendants_are_included() {
        // a → t ← b;  b → x.  Subgraph of a: descendant {t}; x shares
        // parent b with descendant t, so x is included. b itself is
        // neither ancestor, descendant, nor sibling — it stays out (the
        // paper's definition covers siblings only, not co-parents).
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let x = g.add_plus(&[b]);
        let r = subgraph(&g, a).unwrap();
        assert!(r.contains(t));
        assert!(r.contains(x), "x shares parent b with descendant t");
        assert!(!r.contains(b), "co-parents are not part of the subgraph");
    }

    #[test]
    fn subgraph_of_source_and_sink() {
        let (g, [a, _, _, t, u, _, _]) = diamond();
        let from_a = subgraph(&g, a).unwrap();
        assert_eq!(from_a.ancestor_count, 0);
        assert!(from_a.contains(t) && from_a.contains(u));
        let from_u = subgraph(&g, u).unwrap();
        assert_eq!(from_u.descendant_count, 0);
        assert!(from_u.contains(a));
    }

    #[test]
    fn ancestors_only() {
        let (g, [a, b, _, t, u, _, _]) = diamond();
        let anc = ancestors(&g, u).unwrap();
        assert_eq!(anc, vec![a, b, t]);
    }

    #[test]
    fn hidden_nodes_excluded() {
        let (mut g, [a, _, _, t, u, _, _]) = diamond();
        g.set_zoom_hidden(t, true);
        let r = subgraph(&g, a).unwrap();
        assert!(!r.contains(t));
        assert!(!r.contains(u), "reachable only through hidden node");
    }

    #[test]
    fn query_on_hidden_root_is_error() {
        let (mut g, [a, ..]) = diamond();
        g.set_node_deleted(a, true);
        assert!(matches!(
            subgraph(&g, a),
            Err(QueryError::NodeNotVisible(_))
        ));
    }

    /// A four-deep chain a → b → c → d for depth-bound tests.
    fn chain() -> (ProvGraph, [NodeId; 4]) {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_plus(&[a]);
        let c = g.add_plus(&[b]);
        let d = g.add_plus(&[c]);
        (g, [a, b, c, d])
    }

    #[test]
    fn bounded_descendants_respect_depth() {
        let (g, [a, b, c, d]) = chain();
        let r1 = descendants_bounded(&g, a, Some(1)).unwrap();
        assert_eq!(r1.nodes, vec![b]);
        let r2 = descendants_bounded(&g, a, Some(2)).unwrap();
        assert_eq!(r2.nodes, vec![b, c]);
        let all = descendants_bounded(&g, a, None).unwrap();
        assert_eq!(all.nodes, vec![b, c, d]);
    }

    #[test]
    fn bounded_ancestors_respect_depth() {
        let (g, [a, b, c, d]) = chain();
        let r1 = ancestors_bounded(&g, d, Some(1)).unwrap();
        assert_eq!(r1.nodes, vec![c]);
        let all = ancestors_bounded(&g, d, None).unwrap();
        assert_eq!(all.nodes, vec![a, b, c]);
        assert_eq!(all.stats.visited, 4, "root plus three ancestors");
    }

    #[test]
    fn bounded_matches_unbounded_ancestors() {
        let (g, [_, _, _, _, u, _, _]) = {
            let (g, ids) = diamond();
            (g, ids)
        };
        let anc = ancestors(&g, u).unwrap();
        let bounded = ancestors_bounded(&g, u, None).unwrap();
        assert_eq!(anc, bounded.nodes);
    }

    #[test]
    fn collect_filter_prunes_output_not_traversal() {
        let (g, [a, b, c, d]) = chain();
        let (collected, stats) =
            traverse(&g, a, Direction::Descendants, None, |id| id == c).unwrap();
        assert_eq!(collected, vec![c]);
        // b and d were still visited: the filter affects the output set.
        assert_eq!(stats.visited, 4);
        let _ = (b, d);
    }

    #[test]
    fn depth_zero_visits_only_root() {
        let (g, [a, ..]) = chain();
        let r = descendants_bounded(&g, a, Some(0)).unwrap();
        assert!(r.nodes.is_empty());
        assert_eq!(r.stats.visited, 1);
    }

    #[test]
    fn bounded_traversal_skips_hidden() {
        let (mut g, [a, b, c, _]) = chain();
        g.set_zoom_hidden(b, true);
        let r = descendants_bounded(&g, a, None).unwrap();
        assert!(!r.contains(b));
        assert!(!r.contains(c), "only path runs through hidden b");
    }

    #[test]
    fn display_and_dot_render_results() {
        let (g, [a, _, _, t, u, w, _]) = diamond();
        let r = subgraph(&g, t).unwrap();
        let text = r.to_string();
        assert!(text.contains("5 nodes"), "got: {text}");
        let dot = r.to_dot(&g, "sub");
        assert!(dot.starts_with("digraph \"sub\""));
        // Induced render keeps in-set edges, drops out-of-set nodes.
        assert!(dot.contains(&format!("n{} -> n{}", a.0, t.0)));
        assert!(dot.contains(&format!("n{}", u.0)) && dot.contains(&format!("n{}", w.0)));

        let b = descendants_bounded(&g, a, Some(1)).unwrap();
        assert!(b.to_string().contains("within depth 1"));
        let bdot = b.to_dot(&g, "b");
        assert!(
            bdot.contains(&format!("n{} -> n{}", a.0, t.0)),
            "root included"
        );
    }
}
