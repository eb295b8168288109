//! Deletion propagation (paper §4.2, Definition 4.2).
//!
//! Deleting a node removes it and then repeatedly removes every node
//! that either (1) lost *all* of its incoming edges, or (2) is joint
//! (·/⊗-labelled) and lost *any* incoming edge. The result may not
//! correspond to any actual workflow execution, but answers what-if
//! questions ("what would the bid have been had car C2 not been on the
//! lot?", Example 4.3).

use crate::graph::bitset::BitSet;
use crate::graph::node::NodeId;
use crate::graph::ProvGraph;
use crate::store::GraphStore;

use super::error::QueryError;

/// Outcome of a deletion propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletionReport {
    /// Every node deleted, including the root, in deletion order.
    pub deleted: Vec<NodeId>,
}

impl DeletionReport {
    /// Was `id` deleted by the propagation?
    pub fn contains(&self, id: NodeId) -> bool {
        self.deleted.contains(&id)
    }
}

/// Propagate the deletion of `root` **in place**, tombstoning nodes.
pub fn propagate_deletion_inplace(
    graph: &mut ProvGraph,
    root: NodeId,
) -> Result<DeletionReport, QueryError> {
    let report = compute_deletion(graph, root)?;
    for &id in &report.deleted {
        graph.set_node_deleted(id, true);
    }
    Ok(report)
}

/// Propagate the deletion of `root` on a **copy** of the graph,
/// returning the transformed graph and the report. The original is
/// untouched — this matches the paper's reading where deletion yields a
/// new graph G′.
pub fn propagate_deletion(
    graph: &ProvGraph,
    root: NodeId,
) -> Result<(ProvGraph, DeletionReport), QueryError> {
    let mut g = graph.clone();
    let report = propagate_deletion_inplace(&mut g, root)?;
    Ok((g, report))
}

/// Compute the set of nodes Definition 4.2 deletes, without mutating.
/// On a paged store only the descendants the propagation actually
/// examines are faulted in.
pub fn compute_deletion<S: GraphStore + ?Sized>(
    store: &S,
    root: NodeId,
) -> Result<DeletionReport, QueryError> {
    if !store.is_visible(root) {
        return Err(QueryError::NodeNotVisible(root));
    }
    let mut deleted = BitSet::new(store.node_count());
    // Remaining visible-pred counts are tracked lazily: a node is
    // re-examined whenever one of its preds dies.
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue: Vec<NodeId> = vec![root];
    deleted.insert(root.index());
    while let Some(v) = queue.pop() {
        order.push(v);
        // Each successor of a freshly deleted node may now satisfy one
        // of the two deletion conditions.
        for &s in store.succs_of(v).iter() {
            if !store.is_visible(s) || deleted.contains(s.index()) {
                continue;
            }
            let dies = if store.kind_of(s).is_joint() {
                // (2) joint nodes die with any ingredient.
                true
            } else {
                // (1) all incoming edges deleted. Only nodes that had
                // visible ingredients qualify; count survivors.
                store
                    .preds_of(s)
                    .iter()
                    .filter(|p| store.is_visible(**p))
                    .all(|p| deleted.contains(p.index()))
            };
            if dies {
                deleted.insert(s.index());
                queue.push(s);
            }
        }
    }
    Ok(DeletionReport { deleted: order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggOp;
    use crate::graph::tracker::{GraphTracker, Tracker};
    use crate::graph::NodeKind;
    use lipstick_nrel::Value;

    #[test]
    fn plus_survives_partial_deletion() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let p = g.add_plus(&[a, b]);
        let (g2, report) = propagate_deletion(&g, a).unwrap();
        assert!(report.contains(a));
        assert!(!report.contains(p), "alternative derivation b remains");
        assert!(g2.node(p).is_visible());
        // original untouched
        assert!(g.node(a).is_visible());
    }

    #[test]
    fn plus_dies_when_all_alternatives_die() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let p1 = g.add_plus(&[a]);
        let p2 = g.add_plus(&[p1]);
        let report = propagate_deletion_inplace(&mut g, a).unwrap();
        assert!(report.contains(p1));
        assert!(report.contains(p2));
        assert_eq!(g.visible_count(), 0);
    }

    #[test]
    fn times_dies_with_any_ingredient() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        let (_, report) = propagate_deletion(&g, a).unwrap();
        assert!(report.contains(t));
        assert!(!report.contains(b), "other ingredient itself survives");
    }

    #[test]
    fn delta_behaves_like_plus() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let d = g.add_delta(&[a, b]);
        let (_, report) = propagate_deletion(&g, a).unwrap();
        assert!(!report.contains(d));
        let (_, report) = propagate_deletion(&g, d).unwrap();
        assert_eq!(report.deleted, vec![d]);
    }

    #[test]
    fn example_4_3_count_survives_deleting_one_car() {
        // Figure 3: delete C2; the Count aggregate keeps its other tensor.
        let mut g = ProvGraph::new();
        let c2 = g.add_base("C2");
        let c3 = g.add_base("C3");
        let agg = g.add_agg(AggOp::Count, &[(c2, Value::Int(1)), (c3, Value::Int(1))]);
        let (g2, report) = propagate_deletion(&g, c2).unwrap();
        assert!(!report.contains(agg), "Count node survives");
        // exactly one tensor died (the ⊗ of C2)
        let dead_tensors = report
            .deleted
            .iter()
            .filter(|id| matches!(g.node(**id).kind, NodeKind::Tensor))
            .count();
        assert_eq!(dead_tensors, 1);
        // and the recomputed aggregate over the survivor gives 1
        let av = g2.agg_value_of(agg).unwrap();
        let remaining: Vec<_> = g2
            .node(agg)
            .preds()
            .iter()
            .filter(|t| g2.node(**t).is_visible())
            .collect();
        assert_eq!(remaining.len(), 1);
        assert_eq!(av.op, AggOp::Count);
    }

    #[test]
    fn example_4_4_deleting_request_kills_downstream_not_state() {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        t.begin_invocation("M", 0);
        let i = t.module_input(wi);
        let s = t.state_node(c2);
        let join = t.times(&[i, s]);
        let o = t.module_output(join, &[]);
        t.end_invocation();
        let m_node = t.graph().invocations()[0].m_node;
        let mut g = t.finish();
        let report = propagate_deletion_inplace(&mut g, wi).unwrap();
        // i, join, o all die
        assert!(report.contains(i));
        assert!(report.contains(join));
        assert!(report.contains(o));
        // state tuple, its s node, and the module invocation survive
        assert!(g.node(c2).is_visible());
        assert!(g.node(s).is_visible());
        assert!(g.node(m_node).is_visible());
    }

    #[test]
    fn deleting_state_tuple_keeps_bid_alive_when_alternative_exists() {
        // Example 4.5's structure: the bid's projection has two
        // alternative group members; deleting one car keeps it alive.
        let mut g = ProvGraph::new();
        let c2 = g.add_base("C2");
        let c3 = g.add_base("C3");
        let grp = g.add_delta(&[c2, c3]);
        let bid = g.add_plus(&[grp]);
        let (_, report) = propagate_deletion(&g, c2).unwrap();
        assert!(!report.contains(bid));
        assert!(!report.contains(grp));
    }

    #[test]
    fn deleting_hidden_node_is_error() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        g.set_node_deleted(a, true);
        assert!(matches!(
            compute_deletion(&g, a),
            Err(QueryError::NodeNotVisible(_))
        ));
    }

    #[test]
    fn report_order_starts_with_root() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let t = g.add_times(&[a]);
        let report = compute_deletion(&g, a).unwrap();
        assert_eq!(report.deleted.first(), Some(&a));
        assert!(report.contains(t));
    }
}
