//! Precomputed bidirectional reachability index.
//!
//! §5.1 discusses the design trade-off: "An alternative is to pre-compute
//! the transitive closure of each node, or to keep pair-wise reachability
//! information. Both these options would result in higher memory
//! overhead, but may speed up query processing." This module implements
//! that alternative — in **both directions**: one sorted descendant row
//! and one sorted ancestor row of node ids per node, so `DESCENDANTS OF`
//! and `ANCESTORS OF` are symmetric closure lookups and the planner's
//! cost model does not privilege one walk direction over the other.
//!
//! The index is **incrementally maintained** rather than rebuilt.
//! Mutations in this system are structured: deletion propagation only
//! ever *removes* reachability, and zooms flip visibility of a known
//! node set while wiring in (or retiring) composite nodes. After any
//! such mutation, [`ReachIndex::repair`] recomputes only the *affected
//! region* — the nodes that can reach (or be reached from) a changed
//! node — instead of the whole closure; a build is the same kernel with
//! every node changed. [`ReachIndex::matches_fresh_build`] is the
//! exactness oracle: a repaired index must equal a from-scratch build
//! (asserted in debug builds by `proql::Session` and property-tested
//! over random mutation sequences).

use crate::graph::bitset::BitSet;
use crate::graph::node::NodeId;
use crate::store::GraphStore;

/// Bidirectional transitive closure: per node, the ascending ids of its
/// descendants and of its ancestors (the transpose).
///
/// Memory is O(V + Σ cone sizes): a node with an empty cone (a leaf, a
/// hidden node) holds an empty row and no allocation. The index reports
/// its own footprint so the ablation can chart memory against query
/// speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachIndex {
    descendants: Vec<Box<[NodeId]>>,
    ancestors: Vec<Box<[NodeId]>>,
}

/// Which closure a repair pass recomputes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Closure {
    Descendants,
    Ancestors,
}

impl ReachIndex {
    /// Build both closures over visible nodes: the repair of an empty
    /// index in which every node changed, whose local dependency order
    /// is then the graph's topological order.
    pub fn build<S: GraphStore + ?Sized>(graph: &S) -> ReachIndex {
        let mut index = ReachIndex {
            descendants: Vec::new(),
            ancestors: Vec::new(),
        };
        let every: Vec<NodeId> = (0..graph.node_count() as u32).map(NodeId).collect();
        index.repair(graph, &every);
        index
    }

    /// Is `to` a (strict) descendant of `from`?
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        row(&self.descendants, from).binary_search(&to).is_ok()
    }

    /// All descendants of `from`, ascending.
    pub fn descendants(&self, from: NodeId) -> Vec<NodeId> {
        row(&self.descendants, from).to_vec()
    }

    /// All ancestors of `of`, ascending.
    pub fn ancestors(&self, of: NodeId) -> Vec<NodeId> {
        row(&self.ancestors, of).to_vec()
    }

    /// Size of the descendant cone (the exact work an indexed
    /// descendant walk does — the planner's cost estimate).
    pub fn descendant_count(&self, from: NodeId) -> usize {
        row(&self.descendants, from).len()
    }

    /// Size of the ancestor cone.
    pub fn ancestor_count(&self, of: NodeId) -> usize {
        row(&self.ancestors, of).len()
    }

    /// Repair both closures in place after a graph mutation.
    ///
    /// `changed` must name every node whose **visibility flipped**
    /// (deleted, hidden, restored) and every node whose **adjacency
    /// changed** (composite zoom nodes plus the inputs/outputs they were
    /// wired to). From those seeds the affected region is discovered by
    /// a BFS through visible neighbours — any node whose closure can
    /// have changed reaches a seed through surviving nodes (take the
    /// first changed node on a gained/lost path: its prefix is wholly
    /// visible) — and only that region is recomputed, in dependency
    /// order local to the region.
    ///
    /// New nodes appended by the mutation (zoom composites) first get
    /// empty rows, so a repaired index equals a fresh
    /// [`ReachIndex::build`] — see [`ReachIndex::matches_fresh_build`].
    pub fn repair<S: GraphStore + ?Sized>(&mut self, graph: &S, changed: &[NodeId]) {
        let n = graph.node_count();
        if n > self.descendants.len() {
            self.descendants.resize_with(n, Box::default);
            self.ancestors.resize_with(n, Box::default);
        }
        self.repair_closure(graph, changed, Closure::Descendants);
        self.repair_closure(graph, changed, Closure::Ancestors);
    }

    /// Recompute one closure over the affected region.
    ///
    /// For the descendant closure, "up" edges (towards ancestors) find
    /// the dirty region and "down" edges (towards descendants) feed the
    /// recomputation; the ancestor closure mirrors both.
    fn repair_closure<S: GraphStore + ?Sized>(
        &mut self,
        graph: &S,
        changed: &[NodeId],
        which: Closure,
    ) {
        let n = graph.node_count();
        let rows = match which {
            Closure::Descendants => &mut self.descendants,
            Closure::Ancestors => &mut self.ancestors,
        };
        let up = |v: NodeId| match which {
            Closure::Descendants => graph.preds_of(v),
            Closure::Ancestors => graph.succs_of(v),
        };
        let down = |v: NodeId| match which {
            Closure::Descendants => graph.succs_of(v),
            Closure::Ancestors => graph.preds_of(v),
        };

        // 1. Dirty discovery: every changed node, plus every visible
        //    node that reaches one against the closure direction.
        let mut dirty = BitSet::new(n);
        let mut queue: Vec<NodeId> = Vec::new();
        for &c in changed {
            if dirty.insert(c.index()) {
                queue.push(c);
            }
        }
        while let Some(v) = queue.pop() {
            for &u in up(v).iter() {
                if graph.is_visible(u) && dirty.insert(u.index()) {
                    queue.push(u);
                }
            }
        }

        // 2. Local Kahn order: a dirty node is ready once all its dirty
        //    "down" neighbours are recomputed.
        let dirty_ids: Vec<NodeId> = dirty.iter().map(|i| NodeId(i as u32)).collect();
        let mut deg = vec![0u32; n];
        for &v in &dirty_ids {
            deg[v.index()] = down(v).iter().filter(|d| dirty.contains(d.index())).count() as u32;
        }
        let mut ready: Vec<NodeId> = dirty_ids
            .iter()
            .copied()
            .filter(|v| deg[v.index()] == 0)
            .collect();

        // 3. The row kernel: mark each visible down-neighbour and its row
        //    in one scratch bitset, collecting ids as they are first
        //    marked; emit them sorted (a word sweep once the row is denser
        //    than n/16), then unmark exactly what was marked.
        let mut scratch = BitSet::new(n);
        let mut found: Vec<NodeId> = Vec::new();
        let mut processed = 0usize;
        while let Some(v) = ready.pop() {
            processed += 1;
            if graph.is_visible(v) {
                for &d in down(v).iter() {
                    if graph.is_visible(d) {
                        for &x in std::iter::once(&d).chain(rows[d.index()].iter()) {
                            if scratch.insert(x.index()) {
                                found.push(x);
                            }
                        }
                    }
                }
            }
            rows[v.index()] = if found.len() > n / 16 {
                scratch.iter().map(|i| NodeId(i as u32)).collect()
            } else {
                found.sort_unstable();
                found.as_slice().into()
            };
            for x in found.drain(..) {
                scratch.remove(x.index());
            }
            for &u in up(v).iter() {
                if dirty.contains(u.index()) {
                    deg[u.index()] -= 1;
                    if deg[u.index()] == 0 {
                        ready.push(u);
                    }
                }
            }
        }
        debug_assert_eq!(
            processed,
            dirty_ids.len(),
            "affected region of a DAG must drain"
        );
    }

    /// Does this index equal a fresh build over `graph`? Rows are
    /// canonical (sorted, deduplicated), so equality is exact. The
    /// oracle behind the incremental-repair debug assertion and the
    /// property tests.
    pub fn matches_fresh_build<S: GraphStore + ?Sized>(&self, graph: &S) -> bool {
        *self == ReachIndex::build(graph)
    }
}

/// One node's row; empty for an id the index has never seen.
fn row(rows: &[Box<[NodeId]>], v: NodeId) -> &[NodeId] {
    rows.get(v.index()).map_or(&[], |r| r)
}

impl crate::obs::HeapSize for ReachIndex {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        let ids = |rows: &[Box<[NodeId]>]| {
            rows.iter().map(|r| r.len()).sum::<usize>() * std::mem::size_of::<NodeId>()
        };
        let rows = crate::obs::vec_alloc_bytes(&self.descendants)
            + crate::obs::vec_alloc_bytes(&self.ancestors);
        vec![
            ("descendant_closure", ids(&self.descendants)),
            ("ancestor_closure", ids(&self.ancestors)),
            ("row_headers", rows),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProvGraph;
    use crate::obs::HeapSize;
    use crate::query::{propagate_deletion_inplace, zoom_in, zoom_out};

    #[test]
    fn closure_matches_bfs() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let u = g.add_plus(&[t]);
        let w = g.add_plus(&[t, u]);
        let idx = ReachIndex::build(&g);
        assert!(idx.reaches(a, t));
        assert!(idx.reaches(a, w));
        assert!(idx.reaches(t, u));
        assert!(!idx.reaches(u, t));
        assert!(!idx.reaches(a, b));
        assert_eq!(idx.descendants(a), vec![t, u, w]);
    }

    #[test]
    fn ancestor_closure_is_the_transpose() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let u = g.add_plus(&[t]);
        let w = g.add_plus(&[t, u]);
        let idx = ReachIndex::build(&g);
        assert_eq!(idx.ancestors(w), vec![a, b, t, u]);
        assert_eq!(idx.ancestors(t), vec![a, b]);
        assert!(idx.ancestors(a).is_empty());
        // Transpose identity: to ∈ desc(from) ⇔ from ∈ anc(to).
        for (from, _) in g.iter_visible() {
            for (to, _) in g.iter_visible() {
                assert_eq!(
                    idx.descendants(from).contains(&to),
                    idx.ancestors(to).contains(&from),
                    "transpose mismatch {from}→{to}"
                );
            }
        }
        assert_eq!(idx.ancestor_count(w), 4);
        assert_eq!(idx.descendant_count(a), 3);
    }

    #[test]
    fn hidden_nodes_break_paths() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let t = g.add_plus(&[a]);
        let u = g.add_plus(&[t]);
        g.set_zoom_hidden(t, true);
        let idx = ReachIndex::build(&g);
        assert!(!idx.reaches(a, u), "only path goes through hidden node");
        assert!(idx.ancestors(u).is_empty(), "transpose agrees");
    }

    /// Row bytes are the ids the cones hold, 4 bytes each: none for
    /// isolated nodes, n·(n−1)/2 per direction for a chain.
    #[test]
    fn memory_reporting_follows_cone_sizes() {
        let row_bytes = |idx: &ReachIndex| -> usize {
            idx.heap_breakdown()
                .iter()
                .filter(|(name, _)| *name != "row_headers")
                .map(|(_, b)| b)
                .sum()
        };
        let mut isolated = ProvGraph::new();
        for i in 0..130 {
            isolated.add_base(&format!("t{i}"));
        }
        assert_eq!(row_bytes(&ReachIndex::build(&isolated)), 0);

        let mut chain = ProvGraph::new();
        let first = chain.add_base("t0");
        let mut last = first;
        for _ in 1..130 {
            last = chain.add_plus(&[last]);
        }
        let idx = ReachIndex::build(&chain);
        assert_eq!(row_bytes(&idx), 2 * (130 * 129 / 2) * 4);
        assert_eq!(idx.descendant_count(first), 129);
        assert_eq!(idx.ancestor_count(last), 129);
    }

    /// A row denser than n/16 is emitted by the word sweep, a sparser
    /// one by sorting; both come out ascending and deduplicated.
    #[test]
    fn dense_and_sparse_rows_are_both_canonical() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let mut layers = vec![vec![g.add_times(&[a, b])]];
        for _ in 0..40 {
            let prev = layers.last().unwrap().clone();
            layers.push(vec![g.add_plus(&prev), g.add_plus(&prev)]);
        }
        let idx = ReachIndex::build(&g);
        let n = g.len();
        for i in 0..n {
            let v = NodeId(i as u32);
            for r in [idx.descendants(v), idx.ancestors(v)] {
                assert!(
                    r.windows(2).all(|w| w[0] < w[1]),
                    "row of {v} not canonical"
                );
            }
        }
        // `a` reaches all but itself and `b` (a sweep); a node two
        // layers from the end reaches four, collected out of order (a
        // sort).
        assert!(n - 2 > n / 16);
        assert_eq!(idx.descendant_count(a), n - 2);
        assert_eq!(idx.descendant_count(layers[38][0]), 4);
        assert_eq!(idx.descendants(layers[39][1]), layers[40]);
    }

    #[test]
    fn unknown_ids_have_empty_rows() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let idx = ReachIndex::build(&g);
        let ghost = NodeId(a.0 + 1000);
        assert!(!idx.reaches(ghost, a));
        assert!(idx.descendants(ghost).is_empty());
        assert_eq!(idx.ancestor_count(ghost), 0);
    }

    #[test]
    fn repair_after_deletion_matches_fresh_build() {
        // a and b feed a joint t; deleting a kills t and its plus chain
        // but leaves the alternative-derivation branch alive.
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let u = g.add_plus(&[t]);
        let alt = g.add_plus(&[b]);
        let w = g.add_plus(&[u, alt]);
        let mut idx = ReachIndex::build(&g);
        let report = propagate_deletion_inplace(&mut g, a).unwrap();
        idx.repair(&g, &report.deleted);
        assert!(idx.matches_fresh_build(&g), "repaired ≠ fresh build");
        // b still reaches w through the surviving branch only.
        assert!(idx.reaches(b, w));
        assert!(!idx.reaches(b, t));
        assert!(idx.descendants(a).is_empty());
        assert_eq!(idx.ancestors(w), vec![b, alt]);
        let _ = u;
    }

    #[test]
    fn repair_after_root_deletion_clears_everything_reachable() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p1 = g.add_plus(&[a]);
        let p2 = g.add_plus(&[p1]);
        let mut idx = ReachIndex::build(&g);
        let report = propagate_deletion_inplace(&mut g, a).unwrap();
        idx.repair(&g, &report.deleted);
        assert!(idx.matches_fresh_build(&g));
        for v in [a, p1, p2] {
            assert!(idx.descendants(v).is_empty());
            assert!(idx.ancestors(v).is_empty());
        }
    }

    /// Zoom repair, including index growth for the appended composite
    /// nodes and the exact changed-set contract `proql`'s session uses.
    #[test]
    fn repair_after_zoom_out_and_in_matches_fresh_build() {
        use crate::graph::tracker::{GraphTracker, Tracker};
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        for exec in 0..2 {
            t.begin_invocation("M", exec);
            let i = t.module_input(wi);
            let s = t.state_node(c2);
            let join = t.times(&[i, s]);
            let _o = t.module_output(join, &[]);
            t.end_invocation();
        }
        let mut g = t.finish();
        let mut idx = ReachIndex::build(&g);

        let created = zoom_out(&mut g, &["M"]).unwrap();
        let mut changed: Vec<NodeId> = created.clone();
        let stash = g.stash_of("M").expect("just zoomed");
        changed.extend_from_slice(&stash.hidden);
        for &z in &created {
            changed.extend_from_slice(g.node(z).preds());
            changed.extend_from_slice(g.node(z).succs());
        }
        idx.repair(&g, &changed);
        assert!(idx.matches_fresh_build(&g), "zoom-out repair ≠ fresh");

        // Zoom back in: capture the stash (and the composites'
        // neighbours) before the edges are unlinked.
        let stash = g.stash_of("M").unwrap();
        let mut changed: Vec<NodeId> = stash.hidden.clone();
        for z in stash.zoom_nodes.clone() {
            changed.push(z);
            changed.extend_from_slice(g.node(z).preds());
            changed.extend_from_slice(g.node(z).succs());
        }
        zoom_in(&mut g, &["M"]).unwrap();
        idx.repair(&g, &changed);
        assert!(idx.matches_fresh_build(&g), "zoom-in repair ≠ fresh");
    }

    #[test]
    fn repair_with_empty_change_set_is_identity() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let t = g.add_plus(&[a]);
        let mut idx = ReachIndex::build(&g);
        let before = idx.clone();
        idx.repair(&g, &[]);
        assert_eq!(idx, before);
        let _ = t;
    }
}
