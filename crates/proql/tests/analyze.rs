//! Ground truth for `EXPLAIN ANALYZE`: the rendered actuals must equal
//! the counters the executors themselves report — `rows`/`visited`
//! against the returned node-set result, `reads` against the session's
//! backend record-decode counter. Shape invariance is locked down too:
//! a traced set operation renders the same span tree whether branches
//! ran sequentially or on the worker pool.

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::{ProqlError, QueryOutput, Session};
use lipstick_storage::write_graph_v2;
use lipstick_workflowgen::dealers::{self, DealersParams};

fn dealers_graph() -> ProvGraph {
    let params = DealersParams {
        num_cars: 24,
        num_exec: 2,
        seed: 11,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("dealers run");
    tracker.finish()
}

fn temp_log(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lipstick-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_graph_v2(&dealers_graph(), &path).unwrap();
    path
}

/// The value of `key=` on the first actuals line whose label matches.
/// (The plan section above `actuals:` repeats operator names without
/// attributes, so the search starts below it.)
fn attr_on(analyze: &str, label: &str, key: &str) -> u64 {
    let at = analyze
        .find("actuals:")
        .unwrap_or_else(|| panic!("no actuals section in:\n{analyze}"));
    let line = analyze[at..]
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` span in:\n{analyze}"));
    let field = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= on `{line}` in:\n{analyze}"));
    field.parse().unwrap()
}

fn analyze_text(session: &Session, stmt: &str) -> String {
    match session
        .run_read(&format!("EXPLAIN ANALYZE {stmt}"))
        .unwrap_or_else(|e| panic!("ANALYZE {stmt}: {e}"))
    {
        QueryOutput::Text(t) => t,
        other => panic!("ANALYZE must render text, got {other:?}"),
    }
}

/// Resident executor: `rows`/`visited` on the scan span are exactly the
/// node-set result's count and visited mask size.
#[test]
fn resident_actuals_match_the_returned_result() {
    let session = Session::new(dealers_graph());
    for stmt in [
        "MATCH m-nodes",
        "MATCH base-nodes WHERE token LIKE 'C%'",
        "DESCENDANTS OF #0 DEPTH 3",
    ] {
        let QueryOutput::Nodes(ns) = session.run_read(stmt).unwrap() else {
            panic!("{stmt} must return nodes");
        };
        let analyze = analyze_text(&session, stmt);
        let label = if stmt.starts_with("DESCENDANTS") {
            "walk"
        } else {
            "scan"
        };
        assert_eq!(
            attr_on(&analyze, label, "rows"),
            ns.len() as u64,
            "{stmt}\n{analyze}"
        );
        assert_eq!(
            attr_on(&analyze, label, "visited"),
            ns.visited as u64,
            "{stmt}\n{analyze}"
        );
        assert!(analyze.contains("actuals:"), "{analyze}");
        assert!(analyze.contains("total: "), "{analyze}");
    }
}

/// Paged executor: the `reads` attributes are deltas of the session's
/// record-decode counter, so under sequential execution the top-level
/// spans' reads sum to exactly the statement's records_read() delta.
#[test]
fn paged_reads_attrs_sum_to_the_records_read_delta() {
    let session = Session::open(temp_log("reads.lpstk")).unwrap();
    assert!(session.is_paged());
    for stmt in ["MATCH base-nodes", "MATCH m-nodes GROUP BY module"] {
        let before = session.records_read();
        let analyze = analyze_text(&session, stmt);
        let delta = (session.records_read() - before) as u64;
        let scan = attr_on(&analyze, "scan", "reads");
        let shaping = attr_on(&analyze, "shaping", "reads");
        assert_eq!(
            scan + shaping,
            delta,
            "{stmt}: span reads must account for every decode\n{analyze}"
        );
    }
}

/// A set operation runs its flattened branches left to right under
/// `branch i` spans, and the spans' actuals are the statement's own:
/// the set-op span carries the answer's rows and visited figure, and
/// the branches' visited figures sum to it.
#[test]
fn set_op_actuals_are_identical_across_parallelism_modes() {
    let stmt = "MATCH base-nodes UNION MATCH m-nodes UNION MATCH o-nodes";
    let session = Session::new(dealers_graph());
    let text = analyze_text(&session, stmt);

    assert!(text.contains("union rows="), "{text}");
    for i in 0..3 {
        assert!(text.contains(&format!("branch {i} rows=")), "{text}");
    }
    let answer = session.run_read(stmt).unwrap();
    let nodes = answer.nodes().expect("node set");
    assert_eq!(attr_on(&text, "union", "rows"), nodes.nodes.len() as u64);
    assert_eq!(attr_on(&text, "union", "visited"), nodes.visited as u64);
    let branch_visited: u64 = (0..3)
        .map(|i| attr_on(&text, &format!("branch {i}"), "visited"))
        .sum();
    assert_eq!(branch_visited, nodes.visited as u64, "{text}");
}

/// `EXPLAIN ANALYZE` executes its statement, so a mutating inner is
/// rejected by both planners with the read-only error.
#[test]
fn analyze_of_a_mutation_is_rejected_by_both_planners() {
    let resident = Session::new(dealers_graph());
    let paged = Session::open(temp_log("reject.lpstk")).unwrap();
    for session in [&resident, &paged] {
        let err = session
            .run_read("EXPLAIN ANALYZE DELETE #0 PROPAGATE")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("read-only") && err.contains("EXPLAIN ANALYZE DELETE #0 PROPAGATE"),
            "{err}"
        );
    }
}

/// A paged session is a read-only snapshot: a refused change leaves its
/// cumulative read counter, its node count and its answers as they were.
#[test]
fn records_read_is_unchanged_by_a_refused_change() {
    let mut session = Session::open(temp_log("snapshot.lpstk")).unwrap();
    session
        .run_one("MATCH base-nodes WHERE token LIKE '%'")
        .unwrap();
    let paged_reads = session.records_read();
    assert!(paged_reads > 0, "a token test decodes records");
    let state = |session: &Session| {
        (
            session.records_read(),
            session.run_read("STATS").unwrap().to_string(),
            session
                .run_read("MATCH base-nodes WHERE token LIKE '%'")
                .unwrap()
                .to_string(),
        )
    };
    let before = state(&session);
    assert_eq!(before.0, paged_reads, "a warm read decodes nothing");
    for stmt in ["DELETE #0 PROPAGATE", "ZOOM OUT TO Mdealer1", "ZOOM IN"] {
        let err = session.run_one(stmt).unwrap_err();
        assert!(matches!(err, ProqlError::Snapshot(_)), "{stmt}: {err}");
        assert_eq!(state(&session), before, "after {stmt}");
    }
}
