//! `CHECK` / `EXPLAIN LINT` static-analysis tests: exact snapshots of
//! diagnostic codes, byte spans, suggestions, and the caret rendering;
//! proof that CHECK never executes the statement it analyzes; and
//! resident/paged agreement on a corpus of broken statements (the
//! three-engine differential lives in `tests/differential.rs`).

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::{Session, Severity};
use lipstick_storage::write_graph_v2;
use lipstick_workflowgen::dealers::{self, DealersParams};

fn dealers_graph() -> ProvGraph {
    let mut tracker = GraphTracker::new();
    dealers::run_declining(
        &DealersParams {
            num_cars: 8,
            num_exec: 2,
            seed: 42,
        },
        &mut tracker,
    )
    .expect("dealers run");
    tracker.finish()
}

fn temp_log(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lipstick-proql-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("graph-{tag}.lpstk"));
    write_graph_v2(&dealers_graph(), &path).unwrap();
    path
}

/// A broken-statement corpus covering every diagnostic family. Kept in
/// sync with the differential harness's corpus by convention: these are
/// the *interesting* shapes, that one locks cross-engine agreement.
const CORPUS: &[&str] = &[
    "MATCH q-nodes",
    "MATCH nodes WHERE size = 3",
    "MATCH nodes WHERE kind = 'detla'",
    "MATCH nodes WHERE module = 'Mag'",
    "MATCH nodes WHERE",
    "EVAL #0 IN countng",
    "MATCH nodes WHERE execution = 'two'",
    "MATCH m-nodes WHERE token = 'C2'",
    "SUBGRAPH OF #999999",
    "MATCH nodes WHERE module = 'a' AND module = 'b'",
    "MATCH nodes WHERE execution > 5 AND execution < 3",
    "MATCH nodes",
    "ANCESTORS OF #0",
    "DESCENDANTS OF #0 DEPTH 0",
    "MATCH nodes WHERE kind LIKE 'delta'",
    "MATCH base-nodes WHERE kind != 'base_tuple'",
    "MATCH nodes WHERE role = 'free' AND role = 'free'",
    "DELETE #0 PROPAGATE",
];

#[test]
fn clean_statement_reports_no_diagnostics() {
    let path = temp_log("clean");
    let session = Session::load(&path).unwrap();
    let out = session
        .run_read("CHECK MATCH m-nodes WHERE module = 'Magg'")
        .unwrap();
    assert_eq!(out.to_string(), "no diagnostics: statement is clean");
    assert!(out.diagnostics().unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

#[test]
fn kind_typo_snapshot_code_span_suggestion_and_rendering() {
    let path = temp_log("typo");
    let session = Session::load(&path).unwrap();
    let inner = "MATCH nodes WHERE kind = 'detla'";
    let d = session.check(inner);
    assert_eq!(d.items.len(), 1);
    let item = &d.items[0];
    assert_eq!(item.code, "W202");
    assert_eq!(item.severity, Severity::Warning);
    // The span covers the quoted literal, as bytes into the source.
    let at = inner.find("'detla'").unwrap();
    assert_eq!((item.span.start, item.span.end), (at, at + "'detla'".len()));
    assert_eq!(item.suggestion.as_deref(), Some("did you mean 'delta'?"));
    assert_eq!(
        d.to_string(),
        "warning[W202]: no node kind named 'detla'; the comparison can never match\n  \
         --> 1:26 (bytes 25..32)\n   \
         1 | MATCH nodes WHERE kind = 'detla'\n     \
         |                          ^^^^^^^\n     \
         = help: did you mean 'delta'?\n\
         1 diagnostic(s): 0 error(s), 1 warning(s), 0 info"
    );
    // CHECK and the direct helper agree, and both serve paths render
    // through the same Display.
    let out = session.run_read(&format!("CHECK {inner}")).unwrap();
    assert_eq!(out.to_string(), d.to_string());
    std::fs::remove_file(&path).ok();
}

#[test]
fn parse_stage_errors_carry_spans_and_suggestions() {
    let path = temp_log("parse");
    let session = Session::load(&path).unwrap();

    let d = session.check("MATCH q-nodes");
    assert_eq!(d.items.len(), 1);
    assert_eq!(d.items[0].code, "E003");
    assert_eq!(
        &d.source[d.items[0].span.start..d.items[0].span.end],
        "q-nodes"
    );
    // Every one-letter class is distance 1 from `q-nodes`; ties break
    // lexicographically so all backends agree.
    assert_eq!(
        d.items[0].suggestion.as_deref(),
        Some("did you mean 'i-nodes'?")
    );

    let d = session.check("MATCH nodes WHERE size = 3");
    assert_eq!(d.items[0].code, "E004");
    assert_eq!(
        &d.source[d.items[0].span.start..d.items[0].span.end],
        "size"
    );

    let d = session.check("EVAL #0 IN countng");
    assert_eq!(d.items[0].code, "E005");
    assert_eq!(
        &d.source[d.items[0].span.start..d.items[0].span.end],
        "countng"
    );
    assert_eq!(
        d.items[0].suggestion.as_deref(),
        Some("did you mean 'counting'?")
    );

    // A dangling WHERE: plain syntax error, zero-width span at the end.
    let d = session.check("MATCH nodes WHERE");
    assert_eq!(d.items[0].code, "E002");
    assert_eq!(d.items[0].span.start, d.source.len());

    // Lex errors surface too, at a byte offset.
    let d = session.check("MATCH nodes @");
    assert_eq!(d.items[0].code, "E001");
    assert_eq!(d.items[0].span.start, 12);
    std::fs::remove_file(&path).ok();
}

#[test]
fn semantic_and_cost_lints_fire_with_codes() {
    let path = temp_log("lints");
    let session = Session::load(&path).unwrap();
    let code_of = |stmt: &str| -> Vec<&'static str> {
        session.check(stmt).items.iter().map(|d| d.code).collect()
    };

    assert_eq!(code_of("MATCH nodes WHERE module = 'Mag'"), ["W201"]);
    assert_eq!(code_of("MATCH nodes WHERE role = 'fre'"), ["W203"]);
    assert_eq!(code_of("MATCH nodes WHERE execution = 99"), ["W204"]);
    assert_eq!(code_of("MATCH nodes WHERE execution = 'two'"), ["W210"]);
    assert_eq!(code_of("MATCH nodes WHERE execution != 'two'"), ["W211"]);
    assert_eq!(code_of("MATCH m-nodes WHERE token = 'C2'"), ["W212"]);
    // Diagnostics sort by span start: the unknown-module warning for
    // 'a', then the contradiction (anchored at the whole second
    // conjunct), then the unknown-module warning for 'b'.
    assert_eq!(
        code_of("MATCH nodes WHERE module = 'a' AND module = 'b'"),
        ["W201", "W213", "W201"]
    );
    assert_eq!(
        code_of("MATCH nodes WHERE execution > 5 AND execution < 3"),
        ["W214"]
    );
    assert_eq!(
        code_of("MATCH base-nodes WHERE kind != 'base_tuple'"),
        ["W215"]
    );
    assert_eq!(
        code_of("MATCH nodes WHERE role = 'free' AND role = 'free'"),
        ["W216"]
    );
    assert_eq!(code_of("ANCESTORS OF #0"), ["C301"]);
    assert_eq!(code_of("MATCH nodes"), ["C302"]);
    assert_eq!(code_of("MATCH nodes WHERE kind LIKE 'delta'"), ["I401"]);
    assert_eq!(code_of("DESCENDANTS OF #0 DEPTH 0"), ["I404"]);
    assert_eq!(code_of("SUBGRAPH OF #999999"), ["E101"]);
    assert_eq!(code_of("DELETE #0 PROPAGATE"), ["I405"]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_never_executes_even_mutating_statements() {
    let path = temp_log("noexec");
    let mut session = Session::load(&path).unwrap();
    let before = session.run_one("COUNT(*) MATCH nodes").unwrap().to_string();

    // CHECK of a DELETE is read-only: it runs through the shared-access
    // path and must leave the graph untouched.
    let out = session.run_read("CHECK DELETE #0 PROPAGATE").unwrap();
    let d = out.diagnostics().unwrap();
    assert!(d.items.iter().any(|i| i.code == "I405"));

    let after = session.run_one("COUNT(*) MATCH nodes").unwrap().to_string();
    assert_eq!(before, after, "CHECK must not execute the statement");
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_stays_paged_and_matches_resident_byte_for_byte() {
    let path = temp_log("paged");
    let resident = Session::load(&path).unwrap();
    let paged = Session::open(&path).unwrap();
    assert!(paged.is_paged());
    for stmt in CORPUS {
        let text = format!("CHECK {stmt}");
        let r = resident.run_read(&text).unwrap().to_string();
        let p = paged.run_read(&text).unwrap().to_string();
        assert_eq!(r, p, "diagnostics diverged on: {text}");
        let rj = resident.run_read(&text).unwrap().to_json();
        let pj = paged.run_read(&text).unwrap().to_json();
        assert_eq!(rj, pj, "JSON diagnostics diverged on: {text}");
    }
    assert!(paged.is_paged(), "CHECK keeps the session paged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_lint_is_byte_identical_to_check() {
    let path = temp_log("lint-alias");
    let session = Session::load(&path).unwrap();
    for stmt in CORPUS {
        let c = session.run_read(&format!("CHECK {stmt}")).unwrap();
        let l = session.run_read(&format!("EXPLAIN LINT {stmt}")).unwrap();
        assert_eq!(c, l, "EXPLAIN LINT diverged from CHECK on: {stmt}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_round_trips_through_display_and_cache_key() {
    // The canonical rendering is the serve cache key; CHECK must
    // survive a parse → display → parse loop with its source verbatim.
    let text = "CHECK MATCH nodes WHERE kind = 'detla'";
    let stmt = lipstick_proql::parser::parse_statement(text).unwrap();
    assert_eq!(stmt.to_string(), text);
    let reparsed = lipstick_proql::parser::parse_statement(&stmt.to_string()).unwrap();
    assert_eq!(reparsed, stmt);
}
