//! Precomputed bidirectional reachability index.
//!
//! §5.1 discusses the design trade-off: "An alternative is to pre-compute
//! the transitive closure of each node, or to keep pair-wise reachability
//! information. Both these options would result in higher memory
//! overhead, but may speed up query processing." This module implements
//! that alternative — in **both directions**: one descendant bitset and
//! one ancestor bitset per node, so `DESCENDANTS OF` and `ANCESTORS OF`
//! are symmetric closure lookups and the planner's cost model does not
//! privilege one walk direction over the other.
//!
//! The index is **incrementally maintained** rather than rebuilt.
//! Mutations in this system are structured: deletion propagation only
//! ever *removes* reachability, and zooms flip visibility of a known
//! node set while wiring in (or retiring) composite nodes. After any
//! such mutation, [`ReachIndex::repair`] recomputes only the *affected
//! region* — the nodes that can reach (or be reached from) a changed
//! node — instead of the whole closure. [`ReachIndex::matches_fresh_build`]
//! is the exactness oracle: a repaired index must be bit-identical to a
//! from-scratch build (asserted in debug builds by `proql::Session` and
//! property-tested over random mutation sequences).

use crate::graph::bitset::BitSet;
use crate::graph::node::NodeId;
use crate::store::GraphStore;

/// Bidirectional transitive closure: per node, a descendant bitset and
/// an ancestor bitset (its transpose).
///
/// Memory is O(2·V²/8) bytes — the index reports its own footprint so
/// the ablation can chart memory against query speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachIndex {
    descendants: Vec<BitSet>,
    ancestors: Vec<BitSet>,
}

/// Which closure a repair pass recomputes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Closure {
    Descendants,
    Ancestors,
}

impl ReachIndex {
    /// Build both closures over visible nodes.
    ///
    /// Provenance graphs are DAGs; descendant sets are computed in
    /// reverse topological order (each node's set is the union of its
    /// visible successors' sets plus the successors themselves) and
    /// ancestor sets in one mirror pass in forward order.
    pub fn build<S: GraphStore + ?Sized>(graph: &S) -> ReachIndex {
        let n = graph.node_count();
        let order = topo_order(graph);
        let mut descendants: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &v in order.iter().rev() {
            if !graph.is_visible(v) {
                continue;
            }
            // Collect into a scratch set, then store (avoids aliasing
            // two entries of `descendants` at once).
            let mut acc = BitSet::new(n);
            for &s in graph.succs_of(v).iter() {
                if graph.is_visible(s) {
                    acc.insert(s.index());
                    acc.union_with(&descendants[s.index()]);
                }
            }
            descendants[v.index()] = acc;
        }
        let mut ancestors: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &v in order.iter() {
            if !graph.is_visible(v) {
                continue;
            }
            let mut acc = BitSet::new(n);
            for &p in graph.preds_of(v).iter() {
                if graph.is_visible(p) {
                    acc.insert(p.index());
                    acc.union_with(&ancestors[p.index()]);
                }
            }
            ancestors[v.index()] = acc;
        }
        ReachIndex {
            descendants,
            ancestors,
        }
    }

    /// Is `to` a (strict) descendant of `from`?
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.descendants[from.index()].contains(to.index())
    }

    /// All descendants of `from`, ascending.
    pub fn descendants(&self, from: NodeId) -> Vec<NodeId> {
        self.descendants[from.index()]
            .iter()
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// All ancestors of `of`, ascending.
    pub fn ancestors(&self, of: NodeId) -> Vec<NodeId> {
        self.ancestors[of.index()]
            .iter()
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Size of the descendant cone (the exact work an indexed
    /// descendant walk does — the planner's cost estimate).
    pub fn descendant_count(&self, from: NodeId) -> usize {
        self.descendants[from.index()].count()
    }

    /// Size of the ancestor cone.
    pub fn ancestor_count(&self, of: NodeId) -> usize {
        self.ancestors[of.index()].count()
    }

    /// Approximate heap footprint in bytes (both closures, word
    /// buffers only — see [`crate::obs::HeapSize`] for the full
    /// breakdown including row headers).
    pub fn memory_bytes(&self) -> usize {
        self.descendants
            .iter()
            .chain(self.ancestors.iter())
            .map(|b| b.capacity().div_ceil(64) * 8)
            .sum()
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
    /// New nodes appended by the mutation (zoom composites) grow every
    /// bitset, so a repaired index stays bit-identical to a fresh
    /// [`ReachIndex::build`] — see [`ReachIndex::matches_fresh_build`].
    pub fn repair<S: GraphStore + ?Sized>(&mut self, graph: &S, changed: &[NodeId]) {
        let n = graph.node_count();
        if n > self.descendants.len() {
            for set in self.descendants.iter_mut().chain(self.ancestors.iter_mut()) {
                set.grow(n);
            }
            while self.descendants.len() < n {
                self.descendants.push(BitSet::new(n));
                self.ancestors.push(BitSet::new(n));
            }
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
        let sets = match which {
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
        let mut processed = 0usize;
        while let Some(v) = ready.pop() {
            processed += 1;
            let mut acc = BitSet::new(sets[v.index()].capacity());
            if graph.is_visible(v) {
                for &d in down(v).iter() {
                    if graph.is_visible(d) {
                        acc.insert(d.index());
                        acc.union_with(&sets[d.index()]);
                    }
                }
            }
            sets[v.index()] = acc;
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

    /// Is this index bit-identical to a fresh build over `graph`? The
    /// exactness oracle behind the incremental-repair debug assertion
    /// and the property tests.
    pub fn matches_fresh_build<S: GraphStore + ?Sized>(&self, graph: &S) -> bool {
        *self == ReachIndex::build(graph)
    }
}

impl crate::obs::HeapSize for ReachIndex {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        let desc: usize = self.descendants.iter().map(BitSet::heap_bytes).sum();
        let anc: usize = self.ancestors.iter().map(BitSet::heap_bytes).sum();
        let rows = crate::obs::vec_alloc_bytes(&self.descendants)
            + crate::obs::vec_alloc_bytes(&self.ancestors);
        vec![
            ("descendant_closure", desc),
            ("ancestor_closure", anc),
            ("row_headers", rows),
        ]
    }
}

/// Kahn topological order over all allocated nodes (hidden nodes keep
/// their structural edges, so the order covers them too).
fn topo_order<S: GraphStore + ?Sized>(graph: &S) -> Vec<NodeId> {
    let n = graph.node_count();
    let mut indeg = vec![0usize; n];
    for i in 0..n {
        for &s in graph.succs_of(NodeId(i as u32)).iter() {
            indeg[s.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = (0..n)
        .map(|i| NodeId(i as u32))
        .filter(|id| indeg[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &s in graph.succs_of(v).iter() {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "provenance graph must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProvGraph;
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

    #[test]
    fn memory_reporting_scales_quadratically() {
        let mut g = ProvGraph::new();
        for i in 0..130 {
            g.add_base(&format!("t{i}"));
        }
        let idx = ReachIndex::build(&g);
        // 130 nodes → ⌈130/64⌉ = 3 words = 24 bytes each, two closures
        assert_eq!(idx.memory_bytes(), 2 * 130 * 24);
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
