//! Integration tests reproducing the paper's worked examples end to
//! end, across all crates.

use lipstick::core::query::{depends_on, propagate_deletion, zoom_in, zoom_out};
use lipstick::core::semiring::eval::{eval_expr, Valuation};
use lipstick::core::semiring::natural::Natural;
use lipstick::core::{GraphTracker, NodeKind};
use lipstick::prelude::*;
use lipstick::workflowgen::dealers::{self, DealersParams};

/// Build and run the dealership workflow once, returning the graph.
fn dealer_graph(num_exec: usize, seed: u64) -> lipstick::core::ProvGraph {
    let params = DealersParams {
        num_cars: 48,
        num_exec,
        seed,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("run");
    tracker.finish()
}

#[test]
fn intro_question_which_cars_affected_the_winning_bid() {
    // "Which cars affected the computation of this winning bid?"
    let g = dealer_graph(1, 3);
    // The winning-bid path: the Mxor output or Magg outputs; take the
    // last module output and collect its base-tuple ancestors.
    let output = g
        .iter_visible()
        .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
        .map(|(id, _)| id)
        .last()
        .unwrap();
    let anc = lipstick::core::query::subgraph::ancestors(&g, output).unwrap();
    let car_ancestors = anc
        .iter()
        .filter(|id| {
            matches!(&g.node(**id).kind, NodeKind::BaseTuple { token }
                if token.as_str().starts_with('C'))
        })
        .count();
    let all_cars = g
        .iter_visible()
        .filter(|(_, n)| {
            matches!(&n.kind, NodeKind::BaseTuple { token }
                if token.as_str().starts_with('C'))
        })
        .count();
    // fine-grained: only the requested model's cars participate
    assert!(car_ancestors > 0, "the bid depends on some cars");
    assert!(
        car_ancestors < all_cars,
        "coarse-grained would implicate all {all_cars} cars; got {car_ancestors}"
    );
}

#[test]
fn intro_question_would_the_dealer_still_have_made_a_sale() {
    // "Had this car not been present, would its dealer still have made
    // a sale?" — deletion propagation on a graph with a sale.
    let params = DealersParams {
        num_cars: 48,
        num_exec: 30,
        seed: 2,
    };
    let mut tracker = GraphTracker::new();
    let (_, _, outcome) = dealers::run(&params, &mut tracker).expect("run");
    let g = tracker.finish();
    if outcome.purchased.is_none() {
        return; // this seed didn't sell; the deletion scenarios below
                // are covered by other tests
    }
    // The sold-car output node:
    let sale_output = g
        .iter_visible()
        .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
        .map(|(id, _)| id)
        .last()
        .unwrap();
    // Deleting the entire first request kills the sale.
    let first_request = g
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, NodeKind::WorkflowInput { .. }))
        .map(|(id, _)| id)
        .unwrap();
    let (_, report) = propagate_deletion(&g, first_request).unwrap();
    // The sale happened in the *last* execution; deleting execution 0's
    // request does not necessarily kill it — but dependency queries
    // answer either way without crashing.
    let _ = report;
    let _ = depends_on(&g, sale_output, first_request).unwrap();
}

#[test]
fn zoom_out_everything_gives_opm_style_view() {
    let g0 = dealer_graph(2, 5);
    let mut g = g0.clone();
    let mut modules: Vec<String> = (1..=4).map(|k| format!("Mdealer{k}")).collect();
    for m in ["Mreq", "Mand", "Magg", "Mchoice", "Mxor", "Mcar"] {
        modules.push(m.to_string());
    }
    let refs: Vec<&str> = modules.iter().map(String::as_str).collect();
    zoom_out(&mut g, &refs).unwrap();
    // The coarse view contains only workflow-level node kinds.
    for (_, n) in g.iter_visible() {
        assert!(
            matches!(
                n.kind,
                NodeKind::WorkflowInput { .. }
                    | NodeKind::Invocation
                    | NodeKind::ModuleInput
                    | NodeKind::ModuleOutput
                    | NodeKind::Zoomed { .. }
            ),
            "fine-grained kind visible after full ZoomOut: {:?}",
            n.kind
        );
    }
    zoom_in(&mut g, &refs).unwrap();
    assert_eq!(g.visible_signature(), g0.visible_signature());
}

#[test]
fn storage_round_trip_preserves_queryability() {
    let g = dealer_graph(2, 7);
    let bytes = lipstick::storage::encode_graph(&g).unwrap();
    let mut loaded = lipstick::storage::decode_graph(&bytes).unwrap();
    assert_eq!(g.visible_signature(), loaded.visible_signature());
    // Zoom and deletion still work on the loaded graph.
    zoom_out(&mut loaded, &["Mdealer2"]).unwrap();
    zoom_in(&mut loaded, &["Mdealer2"]).unwrap();
    assert_eq!(g.visible_signature(), loaded.visible_signature());
    let some_base = loaded
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .unwrap();
    propagate_deletion(&loaded, some_base).unwrap();
}

/// One `subgraph`, two stores: the resident graph and an append log
/// holding the same dealers run, each with a module zoomed out and a
/// cone tombstoned.
#[test]
fn resident_subgraph_agrees_with_store_generic_on_zoomed_and_tombstoned_graph() {
    use lipstick::core::query::deletion::compute_deletion;
    use lipstick::core::query::{plan_zoom_out, propagate_deletion_inplace};
    use lipstick::storage::{write_graph_v2, AppendLog};

    let mut g = dealer_graph(3, 11);
    let dir = std::env::temp_dir().join(format!("lipstick-scenarios-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("subgraph.lpstk");
    write_graph_v2(&g, &path).unwrap();
    let mut log = AppendLog::open(&path).unwrap();

    zoom_out(&mut g, &["Mdealer1"]).unwrap();
    let plans = plan_zoom_out(&log, &["Mdealer1"], &[], log.stash_count()).unwrap();
    log.commit_zoom_out(plans).unwrap();
    // Tombstone the cone of a workflow input the zoom left visible.
    let victim = g
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, NodeKind::WorkflowInput { .. }))
        .map(|(id, _)| id)
        .unwrap();
    let cone = compute_deletion(&log, victim).unwrap().deleted;
    log.commit_tombstones(&cone).unwrap();
    let dead = propagate_deletion_inplace(&mut g, victim).unwrap();
    assert_eq!(dead.deleted, cone, "same cone, same order, on both stores");
    assert!(cone.len() > 1, "deletion cascaded");
    assert!(g.iter().any(|(_, n)| n.is_zoom_hidden()), "zoom hid nodes");

    for (root, _) in g.iter_visible() {
        assert_eq!(
            subgraph(&g, root).unwrap(),
            subgraph(&log, root).unwrap(),
            "subgraph of {root}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counting_semiring_certifies_bag_multiplicities() {
    // End-to-end homomorphism check on a standalone Pig script: the
    // multiplicity of each distinct output tuple equals the sum of its
    // rows' provenance evaluated in ℕ with all tokens = 1.
    let mut tracker = GraphTracker::new();
    let mut env = Env::new();
    env.bind_with_tokens(
        "R",
        Schema::named(&[("a", DataType::Int)]),
        vec![tuple![1i64], tuple![1i64], tuple![2i64]],
        &mut tracker,
    )
    .unwrap();
    env.bind_with_tokens(
        "S",
        Schema::named(&[("a", DataType::Int)]),
        vec![tuple![1i64], tuple![2i64], tuple![2i64]],
        &mut tracker,
    )
    .unwrap();
    run_script(
        "U = UNION R, S; J = JOIN R BY a, S BY a; P = FOREACH J GENERATE R::a;",
        &mut env,
        &mut tracker,
        &UdfRegistry::new(),
    )
    .unwrap();
    let p = env.relation("P").unwrap().clone();
    let g = tracker.finish();
    // multiplicities: a=1 joins 2×1=2 ways; a=2 joins 1×2=2 ways
    for key in [1i64, 2] {
        let target = tuple![key];
        let mult: u64 = p
            .rows
            .iter()
            .filter(|r| r.tuple == target)
            .map(|r| eval_expr(&g.expr_of(r.ann.prov), &Valuation::<Natural>::ones()).0)
            .sum();
        assert_eq!(mult, 2, "key {key}");
    }
}

#[test]
fn def_4_1_matches_tags_on_real_workflow_graphs() {
    let g = dealer_graph(2, 9);
    lipstick::core::graph::validate::check_intermediate_tags(&g).unwrap();
    lipstick::core::graph::validate::check_structure(&g).unwrap();
}

#[test]
fn facade_prelude_is_usable() {
    // Compile-time check that the prelude exposes the advertised API.
    let mut tracker = NoTracker;
    let mut env: Env<()> = Env::new();
    env.bind_with_tokens(
        "T",
        Schema::named(&[("x", DataType::Int)]),
        vec![tuple![5i64]],
        &mut tracker,
    )
    .unwrap();
    run_script(
        "O = FILTER T BY x > 1;",
        &mut env,
        &mut tracker,
        &UdfRegistry::new(),
    )
    .unwrap();
    assert_eq!(env.relation("O").unwrap().len(), 1);
}
