//! The query primitives are written once against `GraphStore`. These
//! tests run each of them on a resident `ProvGraph`, on a `PagedLog`
//! and on an `AppendLog` holding the same graph — with a tombstoned
//! cone, and on the append log a zoomed-out module as well — and
//! require identical answers: node sets, counts and deletion order.
//! `plan_zoom_out` gets the same treatment on a dealers graph: it walks
//! postings where a store keeps them and sweeps every id where it does
//! not, and the plans must not differ.

use lipstick_core::graph::GraphTracker;
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{
    depends_on, plan_zoom_out, propagate_deletion_inplace, subgraph, traverse, zoom_out, Direction,
};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, ProvGraph, Tracker};
use lipstick_storage::{encode_graph_v2, write_graph_v2, AppendLog, PagedLog};
use lipstick_workflowgen::dealers::{self, DealersParams};

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

/// Another execution of `Mdealer1` and `Mdealer2` whose state nodes
/// share one base tuple: zooming either module alone must leave the
/// tuple visible, zooming both hides it in the second module's plan.
fn shared_state_fragment() -> ProvGraph {
    let mut t = GraphTracker::new();
    let request = t.base("late_request");
    let shared = t.base("shared_inventory");
    for module in ["Mdealer1", "Mdealer2"] {
        t.begin_invocation(module, 9);
        let i = t.module_input(request);
        let s = t.state_node(shared);
        let bid = t.times(&[i, s]);
        t.module_output(bid, &[]);
        t.end_invocation();
    }
    t.finish()
}

#[test]
fn zoom_plans_agree_across_stores() {
    let params = DealersParams {
        num_cars: 24,
        num_exec: 3,
        seed: 5,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("dealers run");
    let sealed = tracker.finish();
    let dir = std::env::temp_dir().join(format!("lipstick-cross-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zoom-plans.lpstk");
    write_graph_v2(&sealed, &path).unwrap();
    std::fs::remove_file(format!("{}.tail", path.display())).ok();
    let mut append = AppendLog::open(&path).unwrap();

    // A tombstoned cone that reaches into the modules, then a fragment
    // that adds invocations of two of them.
    let mut resident = sealed;
    let victim = resident
        .iter_visible()
        .filter(|(_, n)| n.kind.name() == "base_tuple" && !n.succs().is_empty())
        .map(|(id, _)| id)
        .nth(3)
        .expect("dealers seeds inventory tuples");
    let cone = propagate_deletion_inplace(&mut resident, victim)
        .unwrap()
        .deleted;
    assert!(cone.len() > 1, "the deletion cascades");
    append.commit_tombstones(&cone).unwrap();
    let fragment = shared_state_fragment();
    resident.splice(&fragment);
    append.commit_fragment(&fragment).unwrap();
    let paged = PagedLog::from_bytes(encode_graph_v2(&resident).unwrap()).unwrap();

    // Every store keeps postings, and all three hold the same lists.
    for store in [&paged as &dyn GraphStore, &append] {
        assert_eq!(
            store.module_postings("Mdealer1"),
            resident.module_postings("Mdealer1")
        );
        assert_eq!(
            store.kind_postings("base_tuple"),
            resident.kind_postings("base_tuple")
        );
    }

    let mut names: Vec<String> = resident
        .invocations()
        .iter()
        .map(|i| i.module.clone())
        .collect();
    names.sort_unstable();
    names.dedup();
    let modules: Vec<&str> = names.iter().map(String::as_str).collect();
    assert!(modules.len() > 4, "dealers runs many modules");
    let mut calls: Vec<Vec<&str>> = modules.iter().map(|m| vec![*m]).collect();
    // Two modules in one call: the second plan sees the first's
    // simulated hides and composite edges.
    calls.push(vec!["Mdealer1", "Mdealer2"]);
    calls.push(vec!["Mdealer2", "Mdealer1"]);
    calls.push(modules.clone());
    for call in &calls {
        let expect = plan_zoom_out(&resident, call, &[], 0).unwrap();
        assert_eq!(
            plan_zoom_out(&paged, call, &[], 0).unwrap(),
            expect,
            "paged: {call:?}"
        );
        assert_eq!(
            plan_zoom_out(&append, call, &[], 0).unwrap(),
            expect,
            "append: {call:?}"
        );
        assert!(expect.iter().all(|p| !p.composites.is_empty()));
    }
    let shared = resident
        .iter_visible()
        .find(|(_, n)| n.kind.label().contains("shared_inventory"))
        .map(|(id, _)| id)
        .unwrap();
    let hides = |call: &[&str]| -> Vec<bool> {
        let plans = plan_zoom_out(&append, call, &[], 0).unwrap();
        plans.iter().map(|p| p.hidden.contains(&shared)).collect()
    };
    assert_eq!(hides(&["Mdealer1"]), [false]);
    assert_eq!(hides(&["Mdealer1", "Mdealer2"]), [false, true]);

    // With a module already zoomed out (a sealed log cannot be, so the
    // resident graph and the append log only).
    let plans = plan_zoom_out(&append, &["Magg"], &[], append.stash_count()).unwrap();
    append.commit_zoom_out(plans).unwrap();
    zoom_out(&mut resident, &["Magg"]).unwrap();
    let zoomed = vec!["Magg".to_string()];
    for call in calls.iter().filter(|c| !c.contains(&"Magg")) {
        assert_eq!(
            plan_zoom_out(&append, call, &zoomed, 1).unwrap(),
            plan_zoom_out(&resident, call, &zoomed, 1).unwrap(),
            "with Magg zoomed out: {call:?}"
        );
    }
    assert_eq!(
        plan_zoom_out(&append, &["Magg"], &zoomed, 1),
        plan_zoom_out(&resident, &["Magg"], &zoomed, 1)
    );
    // A reopen replays the ZoomOut record by planning again.
    let reopened = AppendLog::open(&path).unwrap();
    assert_eq!(reopened.visible_count(), resident.visible_count());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(format!("{}.tail", path.display())).ok();
}
