//! The resident/paged/append/server differential harness.
//!
//! Random WorkflowGen graphs (Car-dealerships and Arctic-stations
//! parameter sweeps) are written as v2 logs; random well-formed
//! read-only statements (see `lipstick_proql::testgen`) then run
//! four ways —
//!
//! 1. a **resident** session (`Session::load`),
//! 2. a **paged** session (`Session::open`), a read-only snapshot of
//!    the log,
//! 3. an **append** session (`Session::open_append`), whose mutations
//!    commit durable tail records, and
//! 4. a round trip through **`lipstick-serve`**, serving a second append
//!    session on its own copy of the log,
//!
//! and every answer must agree byte-for-byte, the `(visited N)` work
//! figure included: every store scans the same postings and walks the
//! same adjacency. Error paths are differential too: if one engine rejects a
//! statement, all of them must reject it with the same message. On
//! divergence the harness *shrinks* the statement (dropping clauses,
//! conjuncts, and operands while the divergence persists) and reports
//! the minimal failing statement.
//!
//! Statement sequences are **mutation-interleaved**: every few
//! read-only statements, one random mutation (`DELETE … PROPAGATE`,
//! `ZOOM OUT`/`ZOOM IN`, `BUILD INDEX`, `DROP INDEX`) runs on every
//! engine. Resident, append and served answers must agree; the paged
//! snapshot must refuse every `DELETE` and `ZOOM` with the typed
//! snapshot error and answer index statements like the others. That
//! exercises the one write path (decide, stage, apply), the server's
//! epoch bumps and cache invalidation, and — once a `BUILD INDEX` has
//! run — the incremental in-place repair of the reach index, whose
//! debug assertion cross-checks every repaired closure against a fresh
//! build. Occasionally a `COMPACT` runs everywhere: the append engines
//! fold their tails, the others have nothing to compact, and the paged
//! snapshot reopens on the compacted log — so its answers are compared
//! again after mutations, until the next change makes it stale.
//!
//! The case budget comes from `PROPTEST_CASES` (default 256), so CI
//! pins a deterministic, bounded run; generation itself is seeded and
//! deterministic.

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::ast::Statement;
use lipstick_proql::testgen::{self, Rng, Vocab};
use lipstick_proql::{ProqlError, Session};
use lipstick_serve::{Client, Reply, Server, ServerConfig};
use lipstick_storage::write_graph_v2;
use lipstick_workflowgen::arctic::{self, ArcticParams, Selectivity, Topology};
use lipstick_workflowgen::dealers::{self, DealersParams};

/// Statements per generated graph (each graph pays for a log write,
/// two session opens, and a server start).
const STMTS_PER_GRAPH: usize = 32;

/// One mutation is interleaved after every run of this many read-only
/// statements.
const MUTATE_EVERY: usize = 8;

fn case_budget() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// A random small WorkflowGen graph: alternate the two workload
/// families, varying their shape parameters.
fn random_graph(rng: &mut Rng) -> ProvGraph {
    let mut tracker = GraphTracker::new();
    if rng.chance(50) {
        let params = DealersParams {
            num_cars: 6 + rng.below(20),
            num_exec: 1 + rng.below(3),
            seed: rng.next_u64(),
        };
        dealers::run_declining(&params, &mut tracker).expect("dealers run");
    } else {
        let params = ArcticParams {
            stations: 2 + rng.below(4),
            topology: match rng.below(3) {
                0 => Topology::Serial,
                1 => Topology::Parallel,
                _ => Topology::Dense { fanout: 2 },
            },
            selectivity: [
                Selectivity::All,
                Selectivity::Season,
                Selectivity::Month,
                Selectivity::Year,
            ][rng.below(4)],
            num_exec: 1 + rng.below(2),
            seed: rng.next_u64(),
        };
        arctic::run(&params, &mut tracker).expect("arctic run");
    }
    tracker.finish()
}

fn temp_log(graph: &ProvGraph, tag: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lipstick-proql-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("graph-{tag}.lpstk"));
    write_graph_v2(graph, &path).unwrap();
    path
}

/// One engine's answer, comparable across engines: the rendered
/// payload or the error message (newlines flattened the way the
/// server's `ERR` frame flattens them).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Ok(String),
    Err(String),
}

fn local_answer(session: &Session, text: &str) -> Answer {
    match session.run_read(text) {
        Ok(out) => Answer::Ok(out.to_string()),
        Err(e) => Answer::Err(e.to_string().replace('\n', "; ")),
    }
}

/// Mutations go through the exclusive path (the server routes them
/// through its write lock on its own).
fn local_mutation_answer(session: &mut Session, text: &str) -> Answer {
    match session.run_one(text) {
        Ok(out) => Answer::Ok(out.to_string()),
        Err(e) => Answer::Err(e.to_string().replace('\n', "; ")),
    }
}

fn server_answer(client: &mut Client, text: &str) -> Answer {
    match client.query(text).expect("server connection") {
        Reply::Ok { body, .. } => Answer::Ok(body),
        Reply::Err(m) => Answer::Err(m),
        // The harness server has no write-queue limit, so it never
        // sheds; a BUSY here is itself a divergence worth failing on.
        Reply::Busy { retry_after_ms } => {
            panic!("unexpected BUSY retry_after_ms={retry_after_ms} from an unbounded server")
        }
    }
}

/// Where the engines disagree on a statement, if anywhere. The paged
/// snapshot is compared only while it is current (`None` once a change
/// has made it stale).
fn divergence(
    resident: &Session,
    paged: Option<&Session>,
    append: &Session,
    client: &mut Client,
    stmt: &Statement,
) -> Option<String> {
    let text = stmt.to_string();
    let r = local_answer(resident, &text);
    if let Some(paged) = paged {
        let p = local_answer(paged, &text);
        if r != p {
            return Some(format!("resident: {r:?}\n  paged:    {p:?}"));
        }
    }
    let a = local_answer(append, &text);
    if r != a {
        return Some(format!("resident: {r:?}\n  append:   {a:?}"));
    }
    let s = server_answer(client, &text);
    if r != s {
        return Some(format!("resident: {r:?}\n  server:   {s:?}"));
    }
    // Ask again: the reply must be reproducible through the server's
    // result cache (grouped/shaped payloads included).
    let s2 = server_answer(client, &text);
    if s != s2 {
        return Some(format!("server first: {s:?}\n  server again: {s2:?}"));
    }
    None
}

/// Shrink to a minimal still-diverging statement.
fn shrink_divergence(
    resident: &Session,
    paged: Option<&Session>,
    append: &Session,
    client: &mut Client,
    start: Statement,
) -> Statement {
    let mut current = start;
    loop {
        let simpler = testgen::shrink(&current)
            .into_iter()
            .find(|s| divergence(resident, paged, append, client, s).is_some());
        match simpler {
            Some(s) => current = s,
            None => return current,
        }
    }
}

/// Replace the digits after every occurrence of `key` with `_`.
fn mask_digits_after(s: &str, key: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(key) {
        let tail = &rest[at + key.len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..at]);
        out.push_str(key);
        out.push('_');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Drop every ` reads=N` attribute: only paged backends charge record
/// decodes, so the resident rendering has no such field at all.
fn strip_reads(s: &str) -> String {
    let key = " reads=";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(key) {
        let tail = &rest[at + key.len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..at]);
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Reduce an `EXPLAIN ANALYZE` answer to its cross-engine-comparable
/// form: wall times masked and paged-only `reads=` attributes dropped.
/// What remains — the plan, the span tree's shape and labels, its
/// `rows=` and `visited=` values — must agree byte-for-byte across
/// engines, since every store scans the same postings.
fn comparable_actuals(answer: Answer) -> Answer {
    match answer {
        Answer::Ok(body) => {
            assert!(body.contains("actuals:"), "no actuals section in: {body}");
            Answer::Ok(strip_reads(&mask_digits_after(
                // The summary line's wall time: `total: N row(s), T µs`.
                &mask_digits_after(&body, "row(s), "),
                "time_us=",
            )))
        }
        err => err,
    }
}

/// `EXPLAIN ANALYZE` is differential too: for every generated read-only
/// statement, the plan and the span tree of actuals (structure, labels,
/// row and visited counts) must be identical across the resident
/// executor, the paged executor, and a server round trip — only timings
/// and paged fault counts are backend-dependent.
#[test]
fn explain_analyze_actuals_agree_across_engines() {
    let budget = (case_budget() / 4).max(16);
    let mut rng = Rng::new(0x0b5e_12ab_1e0a_c715);
    let mut executed = 0usize;
    let mut graph_tag = 1_000usize; // distinct temp-file range from the main test

    while executed < budget {
        let graph = random_graph(&mut rng);
        let vocab = Vocab::from_graph(&graph);
        let path = temp_log(&graph, graph_tag);
        graph_tag += 1;

        let resident = Session::load(&path).unwrap();
        let paged = Session::open(&path).unwrap();
        let handle = Server::new(
            Session::open(&path).unwrap(),
            ServerConfig {
                workers: 2,
                cache_capacity: 128,
                ..ServerConfig::default()
            },
        )
        .serve("127.0.0.1:0")
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        for _ in 0..(STMTS_PER_GRAPH / 2).min(budget - executed) {
            let stmt = testgen::statement(&vocab, &mut rng);
            let text = format!("EXPLAIN ANALYZE {stmt}");
            let r = comparable_actuals(local_answer(&resident, &text));
            let p = comparable_actuals(local_answer(&paged, &text));
            let s = comparable_actuals(server_answer(&mut client, &text));
            assert!(
                r == p && p == s,
                "ANALYZE actuals diverged.\n  statement: {text}\n  resident: {r:?}\n  \
                 paged:    {p:?}\n  server:   {s:?}"
            );
            executed += 1;
        }

        drop(client);
        handle.shutdown();
        std::fs::remove_file(&path).ok();
    }
}

/// Broken and lint-worthy statements whose diagnostics must be
/// byte-identical across engines: one per diagnostic family, plus lex
/// errors and mutating statements under CHECK.
const INVALID_CORPUS: &[&str] = &[
    "MATCH q-nodes",
    "MATCH nodes WHERE size = 3",
    "MATCH nodes WHERE kind = 'detla'",
    "MATCH nodes WHERE module = 'NoSuchModule'",
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
    "MATCH nodes @",
    "MATCH nodes WHERE execution = 99999",
];

/// `CHECK` / `EXPLAIN LINT` are differential too, with **no masking**:
/// diagnostics carry no visited figures or backend state by design, so
/// the rendering must agree byte-for-byte across the resident session,
/// the paged session, and a server round trip — for a seeded corpus of
/// invalid statements and for a seeded stream of generated valid ones.
#[test]
fn check_diagnostics_agree_byte_for_byte_across_engines() {
    let mut rng = Rng::new(0xc4ec_d1a6_0357_11ab);
    let graph = random_graph(&mut rng);
    let vocab = Vocab::from_graph(&graph);
    let path = temp_log(&graph, 9_000);

    let resident = Session::load(&path).unwrap();
    let paged = Session::open(&path).unwrap();
    assert!(paged.is_paged());
    let handle = Server::new(
        Session::open(&path).unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 128,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let generated: Vec<String> = (0..24)
        .map(|_| testgen::statement(&vocab, &mut rng).to_string())
        .collect();
    let corpus = INVALID_CORPUS
        .iter()
        .map(|s| s.to_string())
        .chain(generated);

    for inner in corpus {
        for prefix in ["CHECK", "EXPLAIN LINT"] {
            let text = format!("{prefix} {inner}");
            let r = local_answer(&resident, &text);
            let p = local_answer(&paged, &text);
            let s = server_answer(&mut client, &text);
            assert!(
                r == p && p == s,
                "diagnostics diverged.\n  statement: {text}\n  resident: {r:?}\n  \
                 paged:    {p:?}\n  server:   {s:?}"
            );
            // Inner text that doesn't even lex is rejected by the
            // *outer* statement lexer before CHECK can capture it —
            // identically on every engine, per the agreement assert
            // above. Everything else must come back as diagnostics.
            if !inner.contains('@') {
                assert!(
                    matches!(&r, Answer::Ok(_)),
                    "CHECK itself must succeed, returning diagnostics: {text} -> {r:?}"
                );
            }
        }
    }
    assert!(paged.is_paged(), "CHECK keeps the session paged");

    drop(client);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A paged snapshot of `path`, holding a reach index exactly when the
/// resident engine does, so index statements answer alike.
fn reopen_paged(path: &std::path::Path, resident: &Session) -> Session {
    let mut paged = Session::open(path).unwrap();
    assert!(paged.is_paged());
    if resident.has_reach_index() {
        paged.run_one("BUILD INDEX").unwrap();
    }
    paged
}

#[test]
fn differential_resident_paged_server() {
    let budget = case_budget();
    let mut rng = Rng::new(0x11f5_71c4_d1ff_e001);
    let mut executed = 0usize;
    let mut graph_tag = 0usize;

    while executed < budget {
        let graph = random_graph(&mut rng);
        let vocab = Vocab::from_graph(&graph);
        let path = temp_log(&graph, graph_tag);
        let served = path.with_extension("served.lpstk");
        std::fs::copy(&path, &served).unwrap();
        graph_tag += 1;

        let mut resident = Session::load(&path).unwrap();
        let mut paged = reopen_paged(&path, &resident);
        // The paged snapshot answers for the log as last written; a
        // change on the other engines makes it stale until it reopens.
        let mut paged_current = true;
        let mut append = Session::open_append(&path).unwrap();
        assert!(append.is_append());
        let handle = Server::new(
            Session::open_append(&served).unwrap(),
            ServerConfig {
                workers: 2,
                cache_capacity: 128,
                ..ServerConfig::default()
            },
        )
        .serve("127.0.0.1:0")
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        for i in 0..STMTS_PER_GRAPH.min(budget - executed) {
            // Interleave mutations between runs of read-only
            // statements: the engines must stay in lock-step through
            // epoch bumps and in-place reach-index repair.
            let mutating = i % MUTATE_EVERY == MUTATE_EVERY - 1;
            let stmt = if mutating {
                testgen::mutation(&vocab, &mut rng)
            } else {
                testgen::statement(&vocab, &mut rng)
            };
            // The canonical rendering must survive a parse round trip
            // before the engines even run it — otherwise the engines
            // would be answering different statements.
            let text = stmt.to_string();
            let reparsed = lipstick_proql::parser::parse_statement(&text)
                .unwrap_or_else(|e| panic!("canonical form failed to parse: {text}\n  {e}"));
            assert_eq!(reparsed, stmt, "display/parse round trip for {text}");

            if mutating {
                let r = local_mutation_answer(&mut resident, &text);
                let a = local_mutation_answer(&mut append, &text);
                let s = server_answer(&mut client, &text);
                assert!(
                    r == a && a == s,
                    "engines diverged on mutation.\n  statement: {stmt}\n  resident: {r:?}\n  \
                     append:   {a:?}\n  server:   {s:?}"
                );
                let changes_graph = matches!(
                    stmt,
                    Statement::DeletePropagate(_) | Statement::ZoomOut(_) | Statement::ZoomIn(_)
                );
                if changes_graph {
                    match paged.run_stmt(&stmt) {
                        Err(ProqlError::Snapshot(_)) => {}
                        other => panic!("the paged snapshot took {stmt}: {other:?}"),
                    }
                    paged_current &= matches!(r, Answer::Err(_));
                } else if paged_current {
                    let p = local_mutation_answer(&mut paged, &text);
                    assert_eq!(p, r, "paged index statement diverged: {stmt}");
                }
                // Occasionally fold the append engines' tails into
                // fresh sealed segments mid-stream. It must succeed
                // whenever no module is zoomed out; the other engines
                // have nothing to compact. The paged snapshot then
                // reopens on the compacted log and is current again.
                let zoomed = append
                    .append_log()
                    .map(|log| !log.zoomed_out_modules().is_empty())
                    .unwrap_or(true);
                if !zoomed && rng.chance(33) {
                    let a = local_mutation_answer(&mut append, "COMPACT");
                    let s = server_answer(&mut client, "COMPACT");
                    assert!(matches!(a, Answer::Ok(_)), "mid-stream COMPACT: {a:?}");
                    assert_eq!(a, s, "the served log compacts alike");
                    let none = Answer::Ok("nothing to compact (no tail segment)".into());
                    assert_eq!(local_mutation_answer(&mut resident, "COMPACT"), none);
                    assert_eq!(local_mutation_answer(&mut paged, "COMPACT"), none);
                    paged = reopen_paged(&path, &resident);
                    paged_current = true;
                }
            } else {
                let current = paged_current.then_some(&paged);
                if let Some(detail) = divergence(&resident, current, &append, &mut client, &stmt) {
                    let minimal =
                        shrink_divergence(&resident, current, &append, &mut client, stmt.clone());
                    let minimal_detail =
                        divergence(&resident, current, &append, &mut client, &minimal)
                            .unwrap_or_default();
                    panic!(
                        "engines diverged.\n  statement: {stmt}\n  {detail}\n  \
                         shrunk to: {minimal}\n  {minimal_detail}"
                    );
                }
            }
            executed += 1;
        }

        drop(client);
        drop(append);
        handle.shutdown();
        for log in [&path, &served] {
            std::fs::remove_file(log).ok();
            let mut tail = log.clone().into_os_string();
            tail.push(".tail");
            std::fs::remove_file(tail).ok();
        }
    }

    assert!(
        executed >= budget,
        "harness must exercise the full case budget ({executed} of {budget})"
    );
}
