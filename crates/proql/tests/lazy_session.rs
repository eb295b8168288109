//! Paged (lazy) sessions over v2 provenance logs: `Session::open` must
//! agree answer-for-answer with a full `Session::load`, while reading
//! strictly fewer records than the log holds, and is a read-only
//! snapshot of the log: a change is refused before a record is read.

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::{ProqlError, QueryOutput, Session};
use lipstick_storage::{write_graph, write_graph_v2};
use lipstick_workflowgen::dealers::{self, DealersParams};

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

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lipstick-proql-lazy");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Write the dealers graph as a v2 log and open it both ways.
fn open_both(name: &str) -> (Session, Session, ProvGraph) {
    let g = dealers_graph();
    let path = temp_path(name);
    write_graph_v2(&g, &path).unwrap();
    let lazy = Session::open(&path).unwrap();
    let full = Session::load(&path).unwrap();
    (lazy, full, g)
}

fn nodes_of(out: &QueryOutput) -> Vec<u32> {
    out.nodes()
        .expect("node set")
        .nodes
        .iter()
        .map(|n| n.0)
        .collect()
}

#[test]
fn open_is_paged_and_load_is_resident() {
    let (lazy, full, _) = open_both("flavours.lpstk");
    assert!(lazy.is_paged());
    assert!(!full.is_paged());
    assert_eq!(lazy.records_read(), 0, "opening decodes no records");
}

#[test]
fn module_filtered_match_agrees_and_reads_fewer_records() {
    let (mut lazy, mut full, g) = open_both("match.lpstk");
    let module = g.invocations()[0].module.clone();
    let stmt = format!("MATCH nodes WHERE module = '{module}'");
    let a = lazy.run_one(&stmt).unwrap();
    let b = full.run_one(&stmt).unwrap();
    assert_eq!(nodes_of(&a), nodes_of(&b));
    assert!(!nodes_of(&a).is_empty());
    assert!(
        lazy.records_read() < g.len(),
        "read {} of {} records",
        lazy.records_read(),
        g.len()
    );
}

#[test]
fn explain_reports_records_read_below_total() {
    let (lazy, _, g) = open_both("explain.lpstk");
    let module = g.invocations()[0].module.clone();
    let plan = lazy
        .explain(&format!("MATCH nodes WHERE module = '{module}'"))
        .unwrap();
    // e.g. "[postings scan on module 'Mdealer1', visits 37, reads 0 of
    // 412 records]": the roles decide a module filter, so nothing is
    // decoded.
    let (visits, reads, total) = parse_scan_figures(&plan).expect("explain names its figures");
    assert_eq!((reads, total), (0, g.len()), "{plan}");
    assert!(visits > 0);
    assert!(
        visits < total,
        "indexed scan must visit strictly fewer than all records: {plan}"
    );
}

/// Pull "visits V, reads R of Y records" out of an EXPLAIN line.
fn parse_scan_figures(plan: &str) -> Option<(usize, usize, usize)> {
    let at = plan.find("visits ")? + "visits ".len();
    let mut parts = plan[at..].split_whitespace();
    let visits = parts.next()?.trim_end_matches(',').parse().ok()?;
    assert_eq!(parts.next(), Some("reads"));
    let reads = parts.next()?.parse().ok()?;
    assert_eq!(parts.next(), Some("of"));
    let total = parts.next()?.parse().ok()?;
    Some((visits, reads, total))
}

/// `EXPLAIN`'s reads figure is a bound on what the scan decodes: on a
/// fresh paged snapshot, `EXPLAIN ANALYZE`'s `reads=` never exceeds it,
/// and is 0 exactly where it is 0 — role-decided scans and scans of the
/// class's own kind list decode nothing; `kind` / `token` conjuncts and
/// classes with no list of their own decode each candidate they test.
#[test]
fn explain_reads_bound_the_records_a_scan_decodes() {
    let g = dealers_graph();
    let path = temp_path("explain-reads.lpstk");
    write_graph_v2(&g, &path).unwrap();
    let module = g.invocations()[0].module.clone();
    for (stmt, decodes) in [
        (format!("MATCH nodes WHERE module = '{module}'"), false),
        (
            format!("MATCH nodes WHERE module = '{module}' AND execution < 1"),
            false,
        ),
        (
            format!("MATCH nodes WHERE module = '{module}' AND role = 'state'"),
            false,
        ),
        ("MATCH base-nodes".to_string(), false),
        ("MATCH m-nodes WHERE execution >= 0".to_string(), false),
        ("MATCH nodes WHERE kind = 'delta'".to_string(), true),
        ("MATCH base-nodes WHERE token LIKE 'C%'".to_string(), true),
        (
            format!("MATCH nodes WHERE module = '{module}' AND kind = 'plus'"),
            true,
        ),
        (format!("MATCH m-nodes WHERE module = '{module}'"), true),
        (format!("MATCH v-nodes WHERE module = '{module}'"), true),
        (format!("MATCH p-nodes WHERE module = '{module}'"), true),
    ] {
        let session = Session::open(&path).unwrap();
        let plan = session.explain(&stmt).unwrap();
        let (visits, reads, _) = parse_scan_figures(&plan).expect("a postings scan");
        let analyzed = session
            .run_read(&format!("EXPLAIN ANALYZE {stmt}"))
            .unwrap()
            .to_string();
        let actual: usize = analyzed
            .split_whitespace()
            .find_map(|w| w.strip_prefix("reads=")?.parse().ok())
            .expect("the scan reports its reads");
        assert!(
            actual <= reads && reads <= visits,
            "{stmt}: {plan}\n{analyzed}"
        );
        assert_eq!(
            (reads > 0, actual > 0),
            (decodes, decodes),
            "{stmt}: {plan}\n{analyzed}"
        );
    }
}

#[test]
fn kind_class_match_uses_postings() {
    let (mut lazy, mut full, g) = open_both("kinds.lpstk");
    for stmt in [
        "MATCH m-nodes",
        "MATCH base-nodes",
        "MATCH o-nodes",
        "MATCH nodes WHERE kind = 'delta'",
    ] {
        let a = lazy.run_one(stmt).unwrap();
        let b = full.run_one(stmt).unwrap();
        assert_eq!(nodes_of(&a), nodes_of(&b), "{stmt}");
    }
    assert!(lazy.records_read() < g.len());
}

#[test]
fn ordered_predicates_agree_and_push_down() {
    let (mut lazy, mut full, g) = open_both("ordered.lpstk");
    let module = g.invocations()[0].module.clone();
    for stmt in [
        "MATCH nodes WHERE execution < 1".to_string(),
        "MATCH nodes WHERE execution >= 1".to_string(),
        "MATCH m-nodes WHERE execution > 0".to_string(),
        "MATCH i-nodes WHERE execution <= 0".to_string(),
        format!("MATCH nodes WHERE module = '{module}' AND execution < 2"),
        "MATCH nodes WHERE kind != 'delta' AND execution >= 0".to_string(),
    ] {
        let a = lazy.run_one(&stmt).unwrap();
        let b = full.run_one(&stmt).unwrap();
        assert_eq!(nodes_of(&a), nodes_of(&b), "{stmt}");
    }
    // The ranged conjunct rides inside the postings scan, and both
    // conjuncts are decided per invocation from the role column: a
    // fresh session answering a module-filtered MATCH with an execution
    // range decodes no record at all.
    let (mut fresh, _, _) = open_both("ordered.lpstk");
    fresh
        .run_one(&format!(
            "MATCH nodes WHERE module = '{module}' AND execution < 2"
        ))
        .unwrap();
    assert_eq!(fresh.records_read(), 0);
    // Sanity: ordered predicates actually partition the m-nodes.
    let lt = nodes_of(&full.run_one("MATCH m-nodes WHERE execution < 1").unwrap());
    let ge = nodes_of(&full.run_one("MATCH m-nodes WHERE execution >= 1").unwrap());
    let all = nodes_of(&full.run_one("MATCH m-nodes").unwrap());
    assert_eq!(lt.len() + ge.len(), all.len());
    assert!(!lt.is_empty() && !ge.is_empty());
}

/// A token prefix pattern that matches at least one base tuple.
fn token_prefix_pattern(g: &ProvGraph) -> String {
    let token = g
        .iter_visible()
        .find_map(|(_, n)| match &n.kind {
            lipstick_core::NodeKind::BaseTuple { token } => Some(token.as_str().to_string()),
            _ => None,
        })
        .expect("graph has base tuples");
    format!("{}%", token.chars().next().unwrap())
}

#[test]
fn prefix_like_match_narrows_to_token_kind_postings() {
    let (mut lazy, mut full, g) = open_both("like.lpstk");
    let pattern = token_prefix_pattern(&g);
    let stmt = format!("MATCH nodes WHERE token LIKE '{pattern}'");

    // The plan names the narrowed scan and reads fewer records than
    // the log holds.
    let plan = lazy.explain(&stmt).unwrap();
    assert!(
        plan.contains("postings scan on token-bearing kinds"),
        "got: {plan}"
    );
    let (visits, reads, total) = parse_scan_figures(&plan).expect("explain names its figures");
    assert_eq!(total, g.len());
    assert!(
        reads > 0 && reads == visits && visits < total,
        "narrowed scan: {plan}"
    );

    // Both backends answer identically, and the paged side touches no
    // more records than the postings estimate announced.
    let a = lazy.run_one(&stmt).unwrap();
    let b = full.run_one(&stmt).unwrap();
    assert_eq!(nodes_of(&a), nodes_of(&b));
    assert!(!nodes_of(&a).is_empty());
    assert!(
        lazy.records_read() <= reads,
        "records_read {} must not exceed the postings estimate {reads}",
        lazy.records_read()
    );

    // module LIKE narrows through the invocation table the same way.
    let module = g.invocations()[0].module.clone();
    let mprefix: String = module.chars().take(2).collect();
    let stmt = format!("MATCH nodes WHERE module LIKE '{mprefix}%'");
    let plan = lazy.explain(&stmt).unwrap();
    assert!(plan.contains("modules LIKE"), "got: {plan}");
    let (visits, reads, total) = parse_scan_figures(&plan).unwrap();
    assert!(visits < total && reads == 0, "got: {plan}");
    let a = lazy.run_one(&stmt).unwrap();
    let b = full.run_one(&stmt).unwrap();
    assert_eq!(nodes_of(&a), nodes_of(&b));
}

/// Both backends plan a scan alike: they read the same postings, so
/// the whole `EXPLAIN` text — strategy bracket, records-read figures,
/// `shape:` line and early-exit marker — must be equal.
#[test]
fn explain_shape_agrees_between_backends() {
    let (lazy, full, g) = open_both("shape.lpstk");
    let pattern = token_prefix_pattern(&g);
    let module = g.invocations()[0].module.clone();
    for stmt in [
        format!("MATCH nodes WHERE token LIKE '{pattern}' LIMIT 4"),
        "MATCH o-nodes GROUP BY module ORDER BY count DESC LIMIT 3".to_string(),
        "COUNT(DISTINCT module) MATCH nodes".to_string(),
        "MATCH base-nodes ORDER BY execution DESC LIMIT 7".to_string(),
        format!("MATCH nodes WHERE module = '{module}' LIMIT 2"),
        format!("MATCH m-nodes WHERE module LIKE '{}%'", &module[..2]),
    ] {
        let paged_plan = lazy.explain(&stmt).unwrap();
        let resident_plan = full.explain(&stmt).unwrap();
        assert_eq!(paged_plan, resident_plan, "{stmt}");
        assert!(
            resident_plan.contains("scan on") || resident_plan.contains("[full scan"),
            "{stmt}: {resident_plan}"
        );
    }
}

#[test]
fn shaped_results_agree_between_backends() {
    let (mut lazy, mut full, g) = open_both("shaped.lpstk");
    let pattern = token_prefix_pattern(&g);
    for stmt in [
        "MATCH nodes GROUP BY kind ORDER BY count DESC".to_string(),
        "MATCH o-nodes GROUP BY module".to_string(),
        "COUNT(*) MATCH base-nodes".to_string(),
        "COUNT(DISTINCT module) MATCH nodes".to_string(),
        format!("MATCH nodes WHERE token LIKE '{pattern}' ORDER BY token"),
        "MATCH m-nodes ORDER BY execution DESC LIMIT 5".to_string(),
        "MATCH nodes LIMIT 0".to_string(),
        "MATCH nodes WHERE module = 'NoSuchModule' GROUP BY kind".to_string(),
    ] {
        let a = lazy.run_one(&stmt).unwrap();
        let b = full.run_one(&stmt).unwrap();
        match (&a, &b) {
            (QueryOutput::Table(x), QueryOutput::Table(y)) => {
                assert_eq!(x.columns, y.columns, "{stmt}");
                assert_eq!(x.rows, y.rows, "{stmt}");
            }
            (QueryOutput::Nodes(x), QueryOutput::Nodes(y)) => {
                assert_eq!(x.nodes, y.nodes, "{stmt}")
            }
            other => panic!("mismatched shapes for {stmt}: {other:?}"),
        }
    }
    // LIMIT 0 and empty GROUP BY stay paged and well-formed.
    assert!(lazy.is_paged());
}

/// A statement built without the parser meets the same shaping check:
/// `ORDER BY count` without `GROUP BY` is a typed error on both
/// backends — not a panic on the resident one, nor a corrupt-log report
/// on the paged one.
#[test]
fn a_hand_built_order_by_count_is_refused_on_both_backends() {
    use lipstick_proql::ast::{SortKey, Statement};
    let (lazy, full, _) = open_both("hand_built.lpstk");
    let Statement::Query(mut q) =
        lipstick_proql::parser::parse_statement("MATCH nodes ORDER BY id DESC").unwrap()
    else {
        panic!("a query")
    };
    q.shaping.order_by.as_mut().expect("ordered").key = SortKey::Count;
    let stmt = Statement::Query(q);
    for session in [&lazy, &full] {
        match session.run_read_stmt(&stmt) {
            Err(ProqlError::Parse(m)) => assert_eq!(m, "ORDER BY count requires GROUP BY"),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn why_walks_depends_and_eval_agree_with_full_load() {
    let (mut lazy, mut full, g) = open_both("agree.lpstk");
    let roots = g.top_fanout_nodes(3);
    let mut stmts = vec![format!("SUBGRAPH OF #{}", roots[0].0)];
    for r in &roots {
        stmts.push(format!("WHY #{}", r.0));
        stmts.push(format!("EVAL #{} IN counting", r.0));
        stmts.push(format!("DESCENDANTS OF #{} DEPTH 2", r.0));
        stmts.push(format!("ANCESTORS OF #{}", r.0));
        stmts.push(format!("DEPENDS(#{}, #{})", roots[1].0, r.0));
    }
    stmts.push(format!(
        "MATCH base-nodes INTERSECT ANCESTORS OF #{}",
        roots[0].0
    ));
    for stmt in &stmts {
        let a = lazy.run_one(stmt).unwrap();
        let b = full.run_one(stmt).unwrap();
        match (&a, &b) {
            (QueryOutput::Nodes(x), QueryOutput::Nodes(y)) => {
                assert_eq!(x.nodes, y.nodes, "{stmt}")
            }
            (QueryOutput::Text(x), QueryOutput::Text(y)) => assert_eq!(x, y, "{stmt}"),
            (QueryOutput::Bool(x), QueryOutput::Bool(y)) => assert_eq!(x, y, "{stmt}"),
            other => panic!("mismatched output shapes for {stmt}: {other:?}"),
        }
        assert!(
            lazy.is_paged(),
            "read-only statements keep the session paged"
        );
    }
}

#[test]
fn token_references_resolve_lazily() {
    let (mut lazy, mut full, _) = open_both("tokens.lpstk");
    // Find a token via the full session, then resolve it lazily.
    let out = full.run_one("MATCH base-nodes").unwrap();
    assert!(!nodes_of(&out).is_empty());
    let g = full.graph();
    let token = g
        .iter_visible()
        .find_map(|(_, n)| match &n.kind {
            lipstick_core::NodeKind::BaseTuple { token } => Some(token.as_str().to_string()),
            _ => None,
        })
        .unwrap();
    let a = lazy.run_one(&format!("WHY '{token}'")).unwrap();
    let b = full.run_one(&format!("WHY '{token}'")).unwrap();
    assert_eq!(a.text(), b.text());
}

/// What a refused change must leave alone on a paged session: the
/// records it has decoded, its `STATS` (node and visible counts among
/// them) and its answers.
fn snapshot_state(s: &Session) -> (usize, String, Vec<u32>) {
    let stats = s.run_read("STATS").unwrap().to_string();
    let nodes = nodes_of(&s.run_read("MATCH nodes").unwrap());
    (s.records_read(), stats, nodes)
}

/// A change on a paged session fails with the one typed error, which
/// names both ways to change the log, and changes nothing.
fn assert_refused(s: &mut Session, stmt: &str) {
    let before = snapshot_state(s);
    let err = s.run_one(stmt).unwrap_err();
    assert!(matches!(err, ProqlError::Snapshot(_)), "{stmt}: {err}");
    let message = err.to_string();
    assert!(
        message.contains("Session::load") && message.contains("Session::open_append"),
        "{message}"
    );
    assert_eq!(snapshot_state(s), before, "{stmt} changed the snapshot");
}

#[test]
fn mutating_statements_are_refused_by_the_snapshot() {
    let (mut lazy, mut full, g) = open_both("snapshot.lpstk");
    let module = g.invocations()[0].module.clone();
    let token = g
        .iter_visible()
        .find_map(|(_, n)| match &n.kind {
            lipstick_core::NodeKind::BaseTuple { token } => Some(token.as_str().to_string()),
            _ => None,
        })
        .unwrap();
    for stmt in [
        format!("ZOOM OUT TO {module}"),
        "ZOOM IN".to_string(),
        "ZOOM OUT TO NoSuchModule".to_string(),
        "DELETE #999999 PROPAGATE".to_string(),
        format!("DELETE '{token}' PROPAGATE"),
    ] {
        assert_refused(&mut lazy, &stmt);
    }
    assert_eq!(lazy.records_read(), 0, "refused before a record is read");
    let fragment = dealers_graph();
    let err = lazy.ingest(&fragment).unwrap_err();
    assert!(matches!(err, ProqlError::Snapshot(_)), "{err}");
    assert_eq!(lazy.records_read(), 0);
    // The loaded copy takes the change; the snapshot keeps answering
    // for the log as written.
    full.run_one(&format!("ZOOM OUT TO {module}")).unwrap();
    let fresh = Session::load(temp_path("snapshot.lpstk")).unwrap();
    assert_eq!(
        nodes_of(&lazy.run_one("MATCH nodes").unwrap()),
        nodes_of(&fresh.run_read("MATCH nodes").unwrap())
    );
}

#[test]
fn delete_propagate_is_refused_and_the_loaded_copy_takes_it() {
    let (mut lazy, mut full, g) = open_both("delete.lpstk");
    let root = g.top_fanout_nodes(1)[0];
    let stmt = format!("DELETE #{} PROPAGATE", root.0);
    assert_refused(&mut lazy, &stmt);
    let expect = lipstick_core::query::deletion::compute_deletion(&g, root).unwrap();
    match full.run_one(&stmt).unwrap() {
        QueryOutput::Deleted { nodes } => assert_eq!(nodes, expect.deleted),
        other => panic!("expected deletions, got {other:?}"),
    }
    assert!(lazy.is_paged());
}

#[test]
fn build_index_on_a_paged_session_serves_reach_lookups() {
    let (mut lazy, mut full, g) = open_both("index.lpstk");
    let before = lazy.records_read();
    lazy.run_one("BUILD INDEX").unwrap();
    full.run_one("BUILD INDEX").unwrap();
    assert!(lazy.is_paged(), "the index is built over the log");
    assert!(lazy.has_reach_index());
    assert!(lazy.records_read() >= before);
    let root = g.top_fanout_nodes(1)[0];
    let stmt = format!("DESCENDANTS OF #{}", root.0);
    assert!(lazy.explain(&stmt).unwrap().contains("reach-index lookup"));
    let out = lazy.run_one(&stmt).unwrap();
    assert!(!nodes_of(&out).is_empty());
    assert_eq!(nodes_of(&out), nodes_of(&full.run_one(&stmt).unwrap()));
}

/// `BUILD INDEX` builds the closure exactly once — a present index is
/// exact, so a redundant `BUILD INDEX` is deduped instead of silently
/// rebuilding — and `DROP INDEX` answers as on every backend, whatever
/// a refused change tried in between.
#[test]
fn build_index_on_a_paged_session_builds_exactly_once() {
    let (mut lazy, _, g) = open_both("dedupe.lpstk");
    let root = g.top_fanout_nodes(1)[0];
    assert_refused(&mut lazy, &format!("DELETE #{} PROPAGATE", root.0));
    assert_eq!(lazy.index_builds(), 0, "a refused change builds no index");

    lazy.run_one("BUILD INDEX").unwrap();
    assert_eq!(lazy.index_builds(), 1);
    let out = lazy.run_one("BUILD INDEX").unwrap();
    assert!(out.to_string().contains("already present"), "got: {}", out);
    assert_eq!(lazy.index_builds(), 1, "silent rebuild");

    // A refused change leaves the index serving indexed plans.
    let victim = g.top_fanout_nodes(3)[2];
    assert_refused(&mut lazy, &format!("DELETE #{} PROPAGATE", victim.0));
    assert!(lazy.has_reach_index());
    assert!(lazy
        .explain(&format!("ANCESTORS OF #{}", root.0))
        .unwrap()
        .contains("reach-index lookup"));

    let out = lazy.run_one("DROP INDEX").unwrap();
    assert_eq!(out.to_string(), "reach index dropped");
    assert!(!lazy.has_reach_index());
    lazy.run_one("BUILD INDEX").unwrap();
    assert_eq!(lazy.index_builds(), 2);
    let out = lazy.run_one("COMPACT").unwrap();
    assert_eq!(out.to_string(), "nothing to compact (no tail segment)");
}

#[test]
fn run_read_is_concurrent_and_rejects_mutations() {
    let (lazy, full, g) = open_both("runread.lpstk");
    let root = g.top_fanout_nodes(1)[0];
    let stmts = [
        "MATCH base-nodes".to_string(),
        format!("DESCENDANTS OF #{} DEPTH 2", root.0),
        format!("WHY #{}", root.0),
        "STATS".to_string(),
        "EXPLAIN MATCH m-nodes".to_string(),
    ];
    // Shared references from many threads at once, against both
    // backends: Session is Send + Sync and run_read takes &self.
    std::thread::scope(|s| {
        for session in [&lazy, &full] {
            for stmt in &stmts {
                s.spawn(move || session.run_read(stmt).unwrap());
            }
        }
    });
    assert!(lazy.is_paged(), "run_read keeps the session paged");
    for session in [&lazy, &full] {
        for stmt in [
            "DELETE #0 PROPAGATE",
            "ZOOM OUT TO M",
            "BUILD INDEX",
            "DROP INDEX",
        ] {
            let err = session.run_read(stmt).unwrap_err();
            assert!(
                matches!(err, lipstick_proql::ProqlError::ReadOnly(_)),
                "{stmt}: {err}"
            );
        }
        // EXPLAIN of a mutating statement only plans — still read-only.
        session.run_read("EXPLAIN DELETE #0 PROPAGATE").unwrap();
    }
}

/// A v1 log has no footer to page from: `Session::open` refuses it
/// with a typed error naming `Session::load`, which answers from the
/// same file.
#[test]
fn v1_logs_are_refused_by_open_and_answered_by_load() {
    let g = dealers_graph();
    let path = temp_path("v1.lpstk");
    write_graph(&g, &path).unwrap();
    let err = Session::open(&path).err().expect("open refuses a v1 log");
    assert!(matches!(err, ProqlError::UnindexedLog), "{err}");
    assert!(err.to_string().contains("Session::load"), "{err}");
    let mut s = Session::load(&path).unwrap();
    let out = s.run_one("MATCH base-nodes").unwrap();
    assert!(!nodes_of(&out).is_empty());
}

/// A snapshot never writes: beside a stale `.tail` bound to another
/// base, and beside none, refused changes, `COMPACT`, `BUILD INDEX`
/// and a refused ingest leave the sidecar's bytes as they were and
/// create no `.tail` or `.compact.tmp`.
#[test]
fn a_snapshot_never_writes() {
    let g = dealers_graph();
    let module = g.invocations()[0].module.clone();
    for stale in [true, false] {
        let path = temp_path(&format!("never-writes-{stale}.lpstk"));
        write_graph_v2(&g, &path).unwrap();
        let sidecar = |suffix: &str| {
            let mut os = path.clone().into_os_string();
            os.push(suffix);
            std::path::PathBuf::from(os)
        };
        let (tail, tmp) = (sidecar(".tail"), sidecar(".compact.tmp"));
        std::fs::remove_file(&tail).ok();
        std::fs::remove_file(&tmp).ok();
        if stale {
            let len = std::fs::metadata(&path).unwrap().len();
            let header = lipstick_storage::tail::encode_header(len + 1, g.len() as u64);
            std::fs::write(&tail, header).unwrap();
        }
        let before = std::fs::read(&tail).ok();

        let mut s = Session::open(&path).unwrap();
        for stmt in [
            "DELETE #0 PROPAGATE".to_string(),
            format!("ZOOM OUT TO {module}"),
        ] {
            let err = s.run_one(&stmt).unwrap_err();
            assert!(matches!(err, ProqlError::Snapshot(_)), "{stmt}: {err}");
        }
        let out = s.run_one("COMPACT").unwrap();
        assert_eq!(out.to_string(), "nothing to compact (no tail segment)");
        s.run_one("BUILD INDEX").unwrap();
        let err = s.ingest(&dealers_graph()).unwrap_err();
        assert!(matches!(err, ProqlError::Snapshot(_)), "{err}");
        drop(s);

        assert_eq!(std::fs::read(&tail).ok(), before, "stale tail: {stale}");
        assert!(!tmp.exists(), "stale tail: {stale}");
        std::fs::remove_file(&tail).ok();
    }
}

#[test]
fn paged_stats_report_log_shape() {
    let (mut lazy, _, g) = open_both("stats.lpstk");
    let out = lazy.run_one("STATS").unwrap();
    let text = out.text().unwrap().to_string();
    assert!(text.contains("paged log"), "got: {text}");
    assert!(
        text.contains(&format!("{} record(s)", g.len())),
        "got: {text}"
    );
}

#[test]
fn corrupt_record_bytes_error_at_query_time_without_aborting() {
    // The footer validates offsets, not record contents: garbled record
    // bytes are only noticed when a query faults the record in. That
    // must surface as an error, not a process abort.
    let g = dealers_graph();
    let path = temp_path("corrupt-record.lpstk");
    write_graph_v2(&g, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Locate a record via the index of a clean open, then trash it.
    let probe = lipstick_storage::PagedLog::from_bytes(bytes.clone()).unwrap();
    let range = probe.index().record_range(lipstick_core::NodeId(3));
    for b in &mut bytes[range] {
        *b = 0xff; // role tag 255 is invalid
    }
    std::fs::write(&path, &bytes).unwrap();

    // The footer still parses, so the open itself succeeds.
    let mut s = Session::open(&path).unwrap();
    // `MATCH nodes` alone never faults a record (visibility is
    // index-level) — and must therefore still succeed.
    assert!(s.run_one("MATCH nodes").is_ok());
    // `p-nodes` has no postings list, so the scan decodes every record
    // and trips over the garbled one.
    let err = s.run_one("MATCH p-nodes").unwrap_err();
    assert!(
        err.to_string().contains("corrupt"),
        "expected a corruption error, got: {err}"
    );
    // A failed decode installs nothing in the fault cache: the same
    // statement fails the same way again, and a statement whose
    // postings keep it away from the bad record still answers.
    let again = s.run_one("MATCH p-nodes").unwrap_err();
    assert_eq!(again.to_string(), err.to_string());
    assert!(!matches!(
        g.node(lipstick_core::NodeId(3)).kind,
        lipstick_core::NodeKind::Invocation
    ));
    assert!(!nodes_of(&s.run_one("MATCH m-nodes").unwrap()).is_empty());
    // The role column is filled by one pass over every record, the bad
    // one included. It marks that record instead of failing, so a role
    // test that never meets it answers, and one that does reports it.
    let m_nodes = s.run_one("MATCH m-nodes WHERE execution >= 0").unwrap();
    assert!(!nodes_of(&m_nodes).is_empty());
    let role_err = s.run_one("MATCH nodes WHERE execution >= 0").unwrap_err();
    assert!(role_err.to_string().contains("corrupt"), "{role_err}");
    // Readers that meet on the bad record each get the error — none
    // hangs on a slot another thread gave up on, none aborts.
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                barrier.wait();
                let raced = s.run_read("MATCH p-nodes").unwrap_err();
                assert_eq!(raced.to_string(), err.to_string());
            });
        }
    });
    assert!(s.run_one("MATCH nodes").is_ok());
}

/// An `m` node without an invocation role used to load, and `WHY` over
/// it panicked in expression extraction.
#[test]
fn invocation_node_without_an_invocation_role_is_refused() {
    let mut g = ProvGraph::new();
    g.add_node(
        lipstick_core::NodeKind::Invocation,
        lipstick_core::Role::Free,
    );
    let path = temp_path("roleless-m-node.lpstk");
    write_graph_v2(&g, &path).unwrap();
    let err = Session::load(&path).err().expect("load refuses");
    assert!(err.to_string().contains("has role free"), "got: {err}");
    let lazy = Session::open(&path).unwrap();
    let err = lazy.run_read("WHY #0").unwrap_err();
    assert!(err.to_string().contains("has role free"), "got: {err}");
}

#[test]
fn corrupt_v2_footer_is_an_open_error() {
    let g = dealers_graph();
    let path = temp_path("corrupt.lpstk");
    write_graph_v2(&g, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let len = bytes.len();
    bytes[len - 2] ^= 0xff; // inside the trailer magic
    std::fs::write(&path, &bytes).unwrap();
    assert!(Session::open(&path).is_err());
}
