//! End-to-end ProQL coverage over a real WorkflowGen provenance graph:
//! every statement form, planner cost-awareness, and agreement between
//! planned and naive execution.

use lipstick_core::graph::stats::stats;
use lipstick_core::query::{ancestors_bounded, depends_on, propagate_deletion, subgraph};
use lipstick_core::{GraphTracker, NodeId, NodeKind, ProvGraph};
use lipstick_proql::{ProqlError, QueryOutput, Session};
use lipstick_workflowgen::dealers::{self, DealersParams};

/// A small Car-dealerships provenance graph (the paper's running
/// example workload).
fn dealers_graph() -> ProvGraph {
    let params = DealersParams {
        num_cars: 24,
        num_exec: 2,
        seed: 7,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("dealers run");
    tracker.finish()
}

fn dealers_session() -> Session {
    Session::new(dealers_graph())
}

/// Any base-tuple token present in the graph.
fn some_base_token(g: &ProvGraph) -> (NodeId, String) {
    g.iter_visible()
        .find_map(|(id, n)| match &n.kind {
            NodeKind::BaseTuple { token } => Some((id, token.as_str().to_string())),
            _ => None,
        })
        .expect("dealers graph has base tuples")
}

/// A module name with at least one invocation.
fn some_module(g: &ProvGraph) -> String {
    g.invocations()[0].module.clone()
}

#[test]
fn subgraph_form_matches_core_query() {
    let mut s = dealers_session();
    let root = s.graph().top_fanout_nodes(1)[0];
    let expected = subgraph(s.graph(), root).unwrap();
    let out = s.run_one(&format!("SUBGRAPH OF #{}", root.0)).unwrap();
    let ns = out.nodes().expect("node set");
    assert_eq!(ns.nodes, expected.nodes);
    assert!(!ns.is_empty());
}

#[test]
fn why_form_names_contributing_tokens() {
    let mut s = dealers_session();
    let (_, token) = some_base_token(s.graph());
    let out = s.run_one(&format!("WHY '{token}'")).unwrap();
    let text = out.text().expect("text output");
    assert!(text.contains(&token), "got: {text}");
}

#[test]
fn depends_form_agrees_with_core_and_with_index() {
    let mut s = dealers_session();
    let roots = s.graph().top_fanout_nodes(4);
    let targets: Vec<NodeId> = s.graph().iter_visible().map(|(id, _)| id).take(8).collect();
    let mut expected = Vec::new();
    for &r in &roots {
        for &t in &targets {
            expected.push(depends_on(s.graph(), t, r).unwrap());
        }
    }
    // Without an index: propagation plan.
    let mut got = Vec::new();
    for &r in &roots {
        for &t in &targets {
            let out = s.run_one(&format!("DEPENDS(#{}, #{})", t.0, r.0)).unwrap();
            got.push(out.bool_value().unwrap());
        }
    }
    assert_eq!(got, expected);
    // With an index: prefiltered plan must answer identically.
    s.run_one("BUILD INDEX").unwrap();
    let mut got_indexed = Vec::new();
    for &r in &roots {
        for &t in &targets {
            let out = s.run_one(&format!("DEPENDS(#{}, #{})", t.0, r.0)).unwrap();
            got_indexed.push(out.bool_value().unwrap());
        }
    }
    assert_eq!(got_indexed, expected);
}

#[test]
fn explain_shows_dependency_plan_switching_to_index() {
    let mut s = dealers_session();
    let before = s.explain("DEPENDS(#1, #0)").unwrap();
    assert!(
        before.contains("deletion propagation"),
        "without index: {before}"
    );
    s.run_one("BUILD INDEX").unwrap();
    let after = s.explain("DEPENDS(#1, #0)").unwrap();
    assert!(
        after.contains("reach-index prefilter"),
        "with index: {after}"
    );
    // EXPLAIN as a statement goes through the same path.
    let out = s.run_one("EXPLAIN DEPENDS(#1, #0)").unwrap();
    assert!(out.text().unwrap().contains("reach-index prefilter"));
}

#[test]
fn delete_form_matches_core_propagation() {
    let mut s = dealers_session();
    let (victim, token) = some_base_token(s.graph());
    let (_, expected) = propagate_deletion(s.graph(), victim).unwrap();
    let out = s.run_one(&format!("DELETE '{token}' PROPAGATE")).unwrap();
    let QueryOutput::Deleted { nodes } = out else {
        panic!("expected deletion output, got {out:?}");
    };
    assert_eq!(nodes, expected.deleted);
    assert!(
        !s.graph().node(victim).is_visible(),
        "deletion is in place on the session graph"
    );
}

#[test]
fn zoom_out_and_in_round_trip() {
    let mut s = dealers_session();
    let module = some_module(s.graph());
    let before = s.graph().visible_signature();
    s.run_one(&format!("ZOOM OUT TO {module}")).unwrap();
    assert_ne!(s.graph().visible_signature(), before);
    assert_eq!(s.graph().zoomed_out_modules(), vec![module.as_str()]);
    s.run_one("ZOOM IN").unwrap();
    assert_eq!(s.graph().visible_signature(), before);
}

#[test]
fn consecutive_zoom_outs_fuse_into_one_statement() {
    let mut s = dealers_session();
    // Two distinct modules with invocations.
    let modules: Vec<String> = {
        let mut seen = std::collections::BTreeSet::new();
        s.graph()
            .invocations()
            .iter()
            .map(|i| i.module.clone())
            .filter(|m| seen.insert(m.clone()))
            .take(2)
            .collect()
    };
    assert_eq!(modules.len(), 2, "dealers workflow has several modules");
    let script = format!("ZOOM OUT TO {}; ZOOM OUT TO {};", modules[0], modules[1]);
    let outputs = s.run(&script).unwrap();
    assert_eq!(outputs.len(), 1, "two zoom statements fused into one");
    let msg = outputs[0].text().unwrap();
    assert!(msg.contains("fused from 2 statements"), "got: {msg}");
    let mut zoomed = s.graph().zoomed_out_modules();
    zoomed.sort_unstable();
    let mut want: Vec<&str> = modules.iter().map(String::as_str).collect();
    want.sort_unstable();
    assert_eq!(zoomed, want);
}

#[test]
fn fused_duplicate_zooms_error_like_sequential_execution() {
    let mut s = dealers_session();
    let module = some_module(s.graph());
    let before = s.graph().visible_signature();
    // Sequentially the second ZOOM OUT errors AlreadyZoomedOut; the
    // fused plan must preserve that instead of zooming twice.
    let err = s
        .run(&format!("ZOOM OUT TO {module}; ZOOM OUT TO {module};"))
        .unwrap_err();
    assert!(matches!(err, ProqlError::Query(_)), "got {err:?}");
    assert_eq!(s.graph().visible_signature(), before, "atomic failure");

    s.run_one(&format!("ZOOM OUT TO {module}")).unwrap();
    let err = s
        .run(&format!("ZOOM IN TO {module}; ZOOM IN TO {module};"))
        .unwrap_err();
    assert!(matches!(err, ProqlError::Query(_)), "errors, not panics");
    s.run_one("ZOOM IN").unwrap();
    assert_eq!(s.graph().visible_signature(), before);
}

#[test]
fn eval_form_covers_every_semiring() {
    let mut s = dealers_session();
    let (id, _) = some_base_token(s.graph());
    for (semiring, needle) in [
        ("counting", "derivation"),
        ("boolean", "true"),
        ("tropical", "tropical"),
        ("lineage", "lineage"),
        ("why", "why"),
    ] {
        let out = s.run_one(&format!("EVAL #{} IN {semiring}", id.0)).unwrap();
        let text = out.text().expect("text output");
        assert!(text.contains(needle), "{semiring}: {text}");
    }
}

#[test]
fn eval_semantics_on_a_known_graph() {
    // (a + b)·c — two derivations; lineage {a,b,c}; witnesses {a,c},{b,c}.
    let mut g = ProvGraph::new();
    let a = g.add_base("a");
    let b = g.add_base("b");
    let c = g.add_base("c");
    let p = g.add_plus(&[a, b]);
    let t = g.add_times(&[p, c]);
    let mut s = Session::new(g);
    let out = s.run_one(&format!("EVAL #{} IN counting", t.0)).unwrap();
    assert!(out.text().unwrap().contains("2 derivation(s)"));
    let out = s.run_one(&format!("EVAL #{} IN lineage", t.0)).unwrap();
    assert!(out.text().unwrap().contains("{a, b, c}"));
    let out = s.run_one(&format!("EVAL #{} IN why", t.0)).unwrap();
    let text = out.text().unwrap().to_string();
    assert!(text.contains("{a, c}") && text.contains("{b, c}"), "{text}");
    let out = s.run_one(&format!("EVAL #{} IN tropical", t.0)).unwrap();
    assert!(
        out.text().unwrap().contains("2"),
        "min-cost derivation uses 2 tuples"
    );
}

#[test]
fn match_module_scan_agrees_with_naive_full_scan_and_visits_fewer() {
    let mut s = dealers_session();
    let module = some_module(s.graph());
    let (visible, records) = (s.graph().visible_count(), s.graph().len());

    // Naive reference: full sweep + post-filter.
    let naive: Vec<NodeId> = s
        .graph()
        .iter_visible()
        .filter(|(_, n)| {
            n.role
                .invocation()
                .is_some_and(|inv| s.graph().invocation(inv).module == module)
        })
        .map(|(id, _)| id)
        .collect();
    assert!(!naive.is_empty());
    let owned = naive.len();

    // The roles decide every candidate: the scan decodes no record.
    let stmt = format!("MATCH nodes WHERE module = '{module}'");
    let explain = s.explain(&stmt).unwrap();
    let bracket = format!(
        "[postings scan on module '{module}', visits {owned}, reads 0 of {records} records]"
    );
    assert!(explain.ends_with(&bracket), "planner chose: {explain}");

    let out = s.run_one(&stmt).unwrap();
    let ns = out.nodes().unwrap();
    assert_eq!(
        ns.nodes, naive,
        "postings scan returns the full-scan answer"
    );
    assert_eq!(
        ns.visited, owned,
        "the scan visits the postings EXPLAIN read"
    );
    assert!(
        owned < visible,
        "pushdown: {owned} of {visible} visible nodes"
    );

    // m-nodes of a module: the module's postings are no longer than
    // the invocation kind's, so the scan visits them, reads each
    // candidate's kind, and keeps the module's m-nodes.
    assert!(owned <= stats(s.graph()).by_kind["invocation"]);
    let stmt = format!("MATCH m-nodes WHERE module = '{module}'");
    let explain = s.explain(&stmt).unwrap();
    let bracket = format!(
        "[postings scan on module '{module}', visits {owned}, reads {owned} of {records} records]"
    );
    assert!(explain.ends_with(&bracket), "planner chose: {explain}");
    let out = s.run_one(&stmt).unwrap();
    let ns = out.nodes().unwrap();
    assert_eq!(ns.len(), s.graph().invocations_of(&module).len());
    assert_eq!(
        ns.visited, owned,
        "the scan visits the postings EXPLAIN read"
    );
}

#[test]
fn match_without_module_filter_full_scans() {
    let mut s = dealers_session();
    let (visible, records) = (s.graph().visible_count(), s.graph().len());

    // No postings list narrows a role predicate: every visible node.
    let stmt = "MATCH nodes WHERE role = 'state'";
    let explain = s.explain(stmt).unwrap();
    assert!(
        explain.ends_with(&format!("[full scan, est visited {visible}]")),
        "got: {explain}"
    );
    let out = s.run_one(stmt).unwrap();
    let ns = out.nodes().unwrap();
    assert_eq!(ns.len(), stats(s.graph()).by_kind["state"]);
    assert_eq!(ns.visited, visible);

    // A node class visits its kind's postings and decodes nothing.
    let base = stats(s.graph()).by_kind["base_tuple"];
    let explain = s.explain("MATCH base-nodes").unwrap();
    let bracket = format!(
        "[postings scan on kind 'base_tuple', visits {base}, reads 0 of {records} records]"
    );
    assert!(explain.ends_with(&bracket), "got: {explain}");
    let out = s.run_one("MATCH base-nodes").unwrap();
    let ns = out.nodes().unwrap();
    assert_eq!(ns.len(), base);
    assert_eq!(ns.visited, base);
}

#[test]
fn walk_forms_respect_depth_and_filters() {
    let mut s = dealers_session();
    // Pick a root that has base tuples among its ancestors, so the
    // filtered walk below has something to return.
    let root = s
        .graph()
        .iter_visible()
        .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
        .map(|(id, _)| id)
        .find(|&id| {
            ancestors_bounded(s.graph(), id, None)
                .unwrap()
                .nodes
                .iter()
                .any(|&a| matches!(s.graph().node(a).kind, NodeKind::BaseTuple { .. }))
        })
        .expect("some module output depends on a base tuple");
    let all = s.run_one(&format!("ANCESTORS OF #{}", root.0)).unwrap();
    let bounded = s
        .run_one(&format!("ANCESTORS OF #{} DEPTH 2", root.0))
        .unwrap();
    let all = all.nodes().unwrap().clone();
    let bounded = bounded.nodes().unwrap().clone();
    assert!(bounded.len() <= all.len());
    assert!(bounded.nodes.iter().all(|n| all.contains(*n)));
    let expected = ancestors_bounded(s.graph(), root, Some(2)).unwrap();
    assert_eq!(bounded.nodes, expected.nodes);

    // Filtered walk: only base tuples among the ancestors.
    let filtered = s
        .run_one(&format!(
            "ANCESTORS OF #{} WHERE kind = 'base_tuple'",
            root.0
        ))
        .unwrap();
    let filtered = filtered.nodes().unwrap();
    assert!(filtered
        .nodes
        .iter()
        .all(|n| matches!(s.graph().node(*n).kind, NodeKind::BaseTuple { .. })));
    assert!(!filtered.is_empty());
    // The filter prunes output, not traversal: same visited count.
    assert_eq!(filtered.visited, all.visited);
}

#[test]
fn descendants_via_index_match_bfs() {
    let mut s = dealers_session();
    let roots = s.graph().top_fanout_nodes(4);
    let bfs: Vec<_> = roots
        .iter()
        .map(|r| {
            s.run_one(&format!("DESCENDANTS OF #{}", r.0))
                .unwrap()
                .nodes()
                .unwrap()
                .clone()
        })
        .collect();
    s.run_one("BUILD INDEX").unwrap();
    let explain = s.explain("DESCENDANTS OF #0").unwrap();
    assert!(explain.contains("reach-index lookup"), "got: {explain}");
    for (r, bfs_result) in roots.iter().zip(&bfs) {
        let indexed = s.run_one(&format!("DESCENDANTS OF #{}", r.0)).unwrap();
        assert_eq!(indexed.nodes().unwrap().nodes, bfs_result.nodes);
    }
    // Bounded walks still BFS (the closure holds no depth information).
    let explain = s.explain("DESCENDANTS OF #0 DEPTH 2").unwrap();
    assert!(explain.contains("bfs"), "got: {explain}");
}

#[test]
fn ancestors_via_index_match_bfs() {
    let mut s = dealers_session();
    // Deep nodes (largest ancestor cones) stress the upward direction.
    let mut roots: Vec<NodeId> = s.graph().iter_visible().map(|(id, _)| id).collect();
    roots.sort_by_key(|r| std::cmp::Reverse(ancestors_bounded(s.graph(), *r, None).unwrap().len()));
    roots.truncate(4);
    let bfs: Vec<_> = roots
        .iter()
        .map(|r| {
            s.run_one(&format!("ANCESTORS OF #{}", r.0))
                .unwrap()
                .nodes()
                .unwrap()
                .clone()
        })
        .collect();
    s.run_one("BUILD INDEX").unwrap();
    // The upward walk is now index-served, symmetrically with
    // DESCENDANTS — no BFS — and EXPLAIN names the closure direction.
    let explain = s.explain(&format!("ANCESTORS OF #{}", roots[0].0)).unwrap();
    assert!(
        explain.contains("reach-index lookup") && explain.contains("ancestor closure"),
        "got: {explain}"
    );
    assert!(!explain.contains("bfs"), "got: {explain}");
    for (r, bfs_result) in roots.iter().zip(&bfs) {
        let indexed = s.run_one(&format!("ANCESTORS OF #{}", r.0)).unwrap();
        assert_eq!(indexed.nodes().unwrap().nodes, bfs_result.nodes);
    }
    // Predicates still push into the indexed lookup.
    let filtered = s
        .run_one(&format!(
            "ANCESTORS OF #{} WHERE kind = 'base_tuple'",
            roots[0].0
        ))
        .unwrap();
    assert!(filtered
        .nodes()
        .unwrap()
        .nodes
        .iter()
        .all(|n| matches!(s.graph().node(*n).kind, NodeKind::BaseTuple { .. })));
    // Bounded walks still BFS (the closure holds no depth information).
    let explain = s
        .explain(&format!("ANCESTORS OF #{} DEPTH 2", roots[0].0))
        .unwrap();
    assert!(explain.contains("bfs"), "got: {explain}");
    // WHY plans report the ancestor-cone bound read off the index.
    let explain = s.explain(&format!("WHY #{}", roots[0].0)).unwrap();
    assert!(explain.contains("ancestor cone"), "got: {explain}");
}

#[test]
fn set_operations_compose_node_sets() {
    let mut s = dealers_session();
    let root = s.graph().top_fanout_nodes(1)[0];
    let base = s
        .run_one("MATCH base-nodes")
        .unwrap()
        .nodes()
        .unwrap()
        .clone();
    let anc = s
        .run_one(&format!("ANCESTORS OF #{}", root.0))
        .unwrap()
        .nodes()
        .unwrap()
        .clone();
    let inter = s
        .run_one(&format!(
            "MATCH base-nodes INTERSECT ANCESTORS OF #{}",
            root.0
        ))
        .unwrap()
        .nodes()
        .unwrap()
        .clone();
    let expected: Vec<NodeId> = base
        .nodes
        .iter()
        .copied()
        .filter(|n| anc.contains(*n))
        .collect();
    assert_eq!(inter.nodes, expected);

    let uni = s
        .run_one(&format!("MATCH base-nodes UNION ANCESTORS OF #{}", root.0))
        .unwrap()
        .nodes()
        .unwrap()
        .clone();
    let mut expected: Vec<NodeId> = base.nodes.iter().chain(anc.nodes.iter()).copied().collect();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(uni.nodes, expected);
    assert_eq!(uni.visited, base.visited + anc.visited);
}

#[test]
fn stats_and_index_lifecycle() {
    let mut s = dealers_session();
    let out = s.run_one("STATS").unwrap();
    assert!(out.text().unwrap().contains("reach index: absent"));
    s.run_one("BUILD INDEX").unwrap();
    assert!(s.has_reach_index());
    let out = s.run_one("STATS").unwrap();
    assert!(out.text().unwrap().contains("reach index: present"));
    // Mutation repairs the closure in place instead of dropping it,
    // and the repaired index keeps serving indexed plans.
    let (_, token) = some_base_token(s.graph());
    s.run_one(&format!("DELETE '{token}' PROPAGATE")).unwrap();
    assert!(s.has_reach_index(), "index repaired in place after DELETE");
    let root = s.graph().iter_visible().next().unwrap().0;
    assert!(s
        .explain(&format!("DESCENDANTS OF #{}", root.0))
        .unwrap()
        .contains("reach-index lookup"));
    // A redundant BUILD INDEX is deduped (the repaired index is exact).
    assert_eq!(s.index_builds(), 1);
    s.run_one("BUILD INDEX").unwrap();
    assert_eq!(s.index_builds(), 1, "present index must not rebuild");
    // DROP INDEX remains the only way to lose the closure.
    s.run_one("DROP INDEX").unwrap();
    assert!(!s.has_reach_index());
    s.run_one("BUILD INDEX").unwrap();
    assert_eq!(s.index_builds(), 2);
}

#[test]
fn session_loads_graph_from_provenance_log() {
    let g = dealers_graph();
    let dir = std::env::temp_dir().join("lipstick-proql-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dealers.lpstk");
    lipstick_storage::write_graph(&g, &path).unwrap();
    let mut s = Session::load(&path).unwrap();
    assert_eq!(s.graph().visible_signature(), g.visible_signature());
    let out = s.run_one("MATCH m-nodes").unwrap();
    assert_eq!(out.nodes().unwrap().len(), g.invocations().len());
    std::fs::remove_file(&path).ok();

    assert!(matches!(
        Session::load(dir.join("missing.lpstk")),
        Err(ProqlError::Storage(_))
    ));
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut s = dealers_session();
    assert!(matches!(
        s.run_one("WHY 'no-such-token'"),
        Err(ProqlError::UnknownNode(_))
    ));
    assert!(matches!(
        s.run_one("SUBGRAPH OF #999999"),
        Err(ProqlError::UnknownNode(_))
    ));
    assert!(matches!(
        s.run_one("ZOOM OUT TO NoSuchModule"),
        Err(ProqlError::Query(_))
    ));
    assert!(s.run_one("FROBNICATE #1").is_err());
}

#[test]
fn like_predicates_match_wildcards() {
    let mut s = dealers_session();
    let (_, token) = some_base_token(s.graph());
    let prefix: String = token.chars().take(1).collect();

    // token LIKE '<first-char>%' selects exactly the base/workflow-input
    // nodes whose token starts with that character.
    let expected: Vec<NodeId> = s
        .graph()
        .iter_visible()
        .filter(|(_, n)| match &n.kind {
            NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token } => {
                token.as_str().starts_with(&prefix)
            }
            _ => false,
        })
        .map(|(id, _)| id)
        .collect();
    assert!(!expected.is_empty());
    let out = s
        .run_one(&format!("MATCH nodes WHERE token LIKE '{prefix}%'"))
        .unwrap();
    assert_eq!(out.nodes().unwrap().nodes, expected);

    // NOT LIKE holds for every node the pattern does not match —
    // token-less nodes included.
    let out = s
        .run_one(&format!("MATCH nodes WHERE token NOT LIKE '{prefix}%'"))
        .unwrap();
    let complement = out.nodes().unwrap();
    assert_eq!(complement.len() + expected.len(), s.graph().visible_count());

    // module LIKE with a prefix pattern selects module-owned nodes.
    let module = some_module(s.graph());
    let like = s
        .run_one(&format!("MATCH nodes WHERE module LIKE '{module}%'"))
        .unwrap();
    let eq = s
        .run_one(&format!("MATCH nodes WHERE module = '{module}'"))
        .unwrap();
    assert!(like.nodes().unwrap().len() >= eq.nodes().unwrap().len());
}

#[test]
fn group_by_counts_match_manual_aggregation() {
    let mut s = dealers_session();
    let out = s.run_one("MATCH o-nodes GROUP BY module").unwrap();
    let table = out.table().expect("grouped output is a table");
    assert_eq!(table.columns, vec!["module", "count"]);

    let mut manual: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (_, n) in s.graph().iter_visible() {
        if matches!(n.kind, NodeKind::ModuleOutput) {
            let module = n
                .role
                .invocation()
                .map(|inv| s.graph().invocation(inv).module.clone())
                .unwrap_or_else(|| "(none)".into());
            *manual.entry(module).or_insert(0) += 1;
        }
    }
    let got: Vec<(String, u64)> = table
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string().parse().unwrap()))
        .collect();
    let want: Vec<(String, u64)> = manual.into_iter().collect();
    assert_eq!(got, want, "group rows in group-value order");

    // ORDER BY count DESC LIMIT 1 yields the largest group.
    let out = s
        .run_one("MATCH o-nodes GROUP BY module ORDER BY count DESC LIMIT 1")
        .unwrap();
    let top = out.table().unwrap();
    assert_eq!(top.len(), 1);
    let max = want.iter().map(|(_, c)| *c).max().unwrap();
    assert_eq!(top.rows[0][1].to_string(), max.to_string());
}

#[test]
fn count_aggregates_project_scalars() {
    let mut s = dealers_session();
    let all = s.run_one("MATCH base-nodes").unwrap();
    let n = all.nodes().unwrap().len();
    let out = s.run_one("COUNT(*) MATCH base-nodes").unwrap();
    let table = out.table().unwrap();
    assert_eq!(table.columns, vec!["count"]);
    assert_eq!(
        table.rows,
        vec![vec![lipstick_proql::result::Cell::Int(n as u64)]]
    );

    let distinct_modules = {
        let mut set = std::collections::BTreeSet::new();
        for info in s.graph().invocations() {
            set.insert(info.module.clone());
        }
        set.len() as u64
    };
    let out = s.run_one("COUNT(DISTINCT module) MATCH nodes").unwrap();
    assert_eq!(
        out.table().unwrap().rows[0][0],
        lipstick_proql::result::Cell::Int(distinct_modules)
    );
}

#[test]
fn order_by_and_limit_shape_node_sets() {
    let mut s = dealers_session();
    let all = s.run_one("MATCH m-nodes").unwrap().nodes().unwrap().clone();
    assert!(all.len() > 3);

    // ORDER BY id DESC reverses the canonical order.
    let desc = s.run_one("MATCH m-nodes ORDER BY id DESC").unwrap();
    let mut reversed = all.nodes.clone();
    reversed.reverse();
    assert_eq!(desc.nodes().unwrap().nodes, reversed);

    // LIMIT keeps the first n of the result order.
    let limited = s.run_one("MATCH m-nodes LIMIT 3").unwrap();
    assert_eq!(limited.nodes().unwrap().nodes, all.nodes[..3].to_vec());
    let limited_desc = s.run_one("MATCH m-nodes ORDER BY id DESC LIMIT 3").unwrap();
    assert_eq!(limited_desc.nodes().unwrap().nodes, reversed[..3].to_vec());

    // ORDER BY execution DESC: executions are non-increasing down the
    // list, ties broken deterministically.
    let by_exec = s.run_one("MATCH m-nodes ORDER BY execution DESC").unwrap();
    let execs: Vec<u32> = by_exec
        .nodes()
        .unwrap()
        .nodes
        .iter()
        .map(|&id| {
            let inv = s.graph().node(id).role.invocation().unwrap();
            s.graph().invocation(inv).execution
        })
        .collect();
    assert!(execs.windows(2).all(|w| w[0] >= w[1]), "{execs:?}");
    assert_eq!(by_exec.nodes().unwrap().len(), all.len());
}

#[test]
fn limit_bounded_scan_visits_fewer_nodes_than_unbounded() {
    let mut s = dealers_session();
    let unbounded = s.run_one("MATCH nodes").unwrap().nodes().unwrap().clone();
    let bounded = s
        .run_one("MATCH nodes LIMIT 5")
        .unwrap()
        .nodes()
        .unwrap()
        .clone();
    assert_eq!(bounded.nodes, unbounded.nodes[..5].to_vec());
    assert!(
        bounded.visited < unbounded.visited,
        "early exit must stop the scan: visited {} of {}",
        bounded.visited,
        unbounded.visited
    );
    // The plan says so, too.
    let plan = s.explain("MATCH nodes LIMIT 5").unwrap();
    assert!(plan.contains("early-exit after 5"), "{plan}");
    assert!(plan.contains("shape: limit 5"), "{plan}");
}

#[test]
fn limit_zero_and_empty_aggregates_are_well_formed() {
    let mut s = dealers_session();

    // LIMIT 0: an empty node set, not an error — and the early-exit
    // scan does no work at all.
    let out = s.run_one("MATCH nodes LIMIT 0").unwrap();
    let ns = out.nodes().unwrap();
    assert!(ns.is_empty());
    assert_eq!(ns.visited, 0);

    // COUNT over an empty match: one row holding 0.
    let out = s
        .run_one("COUNT(*) MATCH nodes WHERE module = 'NoSuchModule'")
        .unwrap();
    assert_eq!(
        out.table().unwrap().rows,
        vec![vec![lipstick_proql::result::Cell::Int(0)]]
    );
    let out = s
        .run_one("COUNT(DISTINCT module) MATCH nodes WHERE module = 'NoSuchModule'")
        .unwrap();
    assert_eq!(
        out.table().unwrap().rows,
        vec![vec![lipstick_proql::result::Cell::Int(0)]]
    );

    // GROUP BY over an empty match: a zero-row table with its header.
    let out = s
        .run_one("MATCH nodes WHERE module = 'NoSuchModule' GROUP BY kind")
        .unwrap();
    let table = out.table().unwrap();
    assert!(table.is_empty());
    assert_eq!(table.columns, vec!["kind", "count"]);

    // Shaped empty walks behave the same.
    let out = s.run_one("ANCESTORS OF #0 GROUP BY module").unwrap();
    assert!(out.table().is_some());
}

#[test]
fn display_round_trips_generated_statements() {
    use lipstick_proql::parser::parse_statement;
    use lipstick_proql::testgen::{self, Vocab};
    use rand::{rngs::StdRng, SeedableRng};

    let vocab = Vocab::from_graph(&dealers_graph());
    let mut rng = StdRng::seed_from_u64(0xd15b_1a4f_600d_cafe);
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    for _ in 0..cases {
        let stmt = testgen::statement(&vocab, &mut rng);
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("canonical form must parse: {printed}\n  {e}"));
        assert_eq!(reparsed, stmt, "parse(display(s)) == s for {printed}");
        // Display is a fixpoint: one more round changes nothing.
        assert_eq!(reparsed.to_string(), printed);
    }
}

#[test]
fn script_runs_multiple_statements_in_order() {
    let mut s = dealers_session();
    let module = some_module(s.graph());
    let outputs = s
        .run(&format!(
            "STATS; BUILD INDEX; MATCH m-nodes WHERE module = '{module}'; DROP INDEX;"
        ))
        .unwrap();
    assert_eq!(outputs.len(), 4);
    assert!(outputs[2].nodes().is_some());
}
