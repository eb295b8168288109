//! The query primitives are written once against `GraphStore`. These
//! tests run each of them on a resident `ProvGraph`, on a `PagedLog`
//! and on an `AppendLog` holding the same graph — with a tombstoned
//! cone, and on the append log a zoomed-out module as well — and
//! require identical answers: node sets, counts and deletion order.

use lipstick_core::graph::GraphTracker;
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{
    depends_on, plan_zoom_out, propagate_deletion_inplace, subgraph, traverse, zoom_out, Direction,
};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, ProvGraph, Tracker};
use lipstick_storage::{encode_graph_v2, write_graph_v2, AppendLog, PagedLog};

/// Two modules over shared base tuples, two executions each.
fn workflow() -> ProvGraph {
    let mut t = GraphTracker::new();
    let bases: Vec<NodeId> = (0..4).map(|i| t.base(&format!("b{i}"))).collect();
    let mut carry = bases[0];
    for exec in 0..2 {
        t.begin_invocation("M", exec);
        let joined = t.times(&[carry, bases[1]]);
        let i = t.module_input(joined);
        let s = t.state_node(bases[2]);
        let x = t.times(&[i, s]);
        let o = t.module_output(x, &[]);
        t.end_invocation();
        t.begin_invocation("Agg", exec);
        let alt = t.plus(&[o, bases[3]]);
        let i2 = t.module_input(alt);
        let o2 = t.module_output(i2, &[]);
        t.end_invocation();
        carry = t.delta(&[o2]);
    }
    t.plus(&[carry]);
    t.finish()
}

/// `(resident, paged)` holding the workflow with the cone of `b1`
/// tombstoned, and `(resident, append)` holding that plus module `M`
/// zoomed out — the append log reaches its state through tail commits.
fn stores() -> ((ProvGraph, PagedLog), (ProvGraph, AppendLog)) {
    let sealed = workflow();
    let dir = std::env::temp_dir().join(format!("lipstick-cross-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{:?}.lpstk", std::thread::current().id()));
    write_graph_v2(&sealed, &path).unwrap();
    // A tail left by an aborted earlier run would replay on open.
    std::fs::remove_file(format!("{}.tail", path.display())).ok();
    let mut append = AppendLog::open(&path).unwrap();

    let mut tombstoned = sealed.clone();
    let cone = propagate_deletion_inplace(&mut tombstoned, NodeId(1))
        .unwrap()
        .deleted;
    assert!(cone.len() > 1, "the deletion cascades");
    let paged = PagedLog::from_bytes(encode_graph_v2(&tombstoned).unwrap()).unwrap();

    append.commit_tombstones(&cone).unwrap();
    let plans = plan_zoom_out(&append, &["M"], &[], append.stash_count()).unwrap();
    append.commit_zoom_out(plans).unwrap();
    let mut zoomed = tombstoned.clone();
    zoom_out(&mut zoomed, &["M"]).unwrap();

    ((tombstoned, paged), (zoomed, append))
}

fn visible_ids(g: &ProvGraph) -> Vec<NodeId> {
    g.iter_visible().map(|(id, _)| id).collect()
}

/// Run `check` on both (resident, other-store) pairs.
fn on_both_pairs(check: impl Fn(&ProvGraph, &dyn GraphStore, &str)) {
    let ((tombstoned, paged), (zoomed, append)) = stores();
    assert_eq!(paged.visible_count(), tombstoned.visible_count());
    assert_eq!(append.visible_count(), zoomed.visible_count());
    check(&tombstoned, &paged, "paged");
    check(&zoomed, &append, "append");
}

#[test]
fn traverse_agrees_across_stores() {
    on_both_pairs(|g, store, which| {
        for root in visible_ids(g) {
            for direction in [Direction::Ancestors, Direction::Descendants] {
                for depth in [None, Some(1), Some(2)] {
                    let p_nodes = |s: &dyn GraphStore, id: NodeId| !s.kind_of(id).is_value_node();
                    let resident = traverse(g, root, direction, depth, |id| p_nodes(g, id));
                    let other = traverse(store, root, direction, depth, |id| p_nodes(store, id));
                    assert_eq!(
                        resident.unwrap(),
                        other.unwrap(),
                        "{which}: {direction:?} of {root} depth {depth:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn subgraph_agrees_across_stores() {
    on_both_pairs(|g, store, which| {
        for root in visible_ids(g) {
            // Node set, `ancestor_count` and `descendant_count` alike.
            assert_eq!(
                subgraph(g, root).unwrap(),
                subgraph(store, root).unwrap(),
                "{which}: subgraph of {root}"
            );
        }
        let hidden = (0..g.len() as u32)
            .map(NodeId)
            .find(|id| !g.node(*id).is_visible())
            .expect("a tombstoned node");
        assert!(subgraph(store, hidden).is_err(), "{which}: invisible root");
    });
}

#[test]
fn deletion_order_and_depends_on_agree_across_stores() {
    on_both_pairs(|g, store, which| {
        let ids = visible_ids(g);
        for &root in &ids {
            assert_eq!(
                compute_deletion(g, root).unwrap().deleted,
                compute_deletion(store, root).unwrap().deleted,
                "{which}: deletion order from {root}"
            );
        }
        for &n in &ids {
            for &m in &ids {
                assert_eq!(
                    depends_on(g, n, m).unwrap(),
                    depends_on(store, n, m).unwrap(),
                    "{which}: depends({n}, {m})"
                );
            }
        }
    });
}
