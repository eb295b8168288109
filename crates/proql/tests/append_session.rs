//! Append-backed sessions (`Session::open_append`): mutations commit
//! durable tail records, `ingest`
//! appends whole fragments, `COMPACT` folds the tail into a fresh
//! sealed segment — and through all of it the session's `records_read`
//! figure stays monotonic and the memory report accounts for the tail
//! overlay.

use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::subgraph::ancestors;
use lipstick_core::{GraphStore, GraphTracker, NodeId, ProvGraph};
use lipstick_proql::{ProqlError, QueryOutput, Session};
use lipstick_storage::write_graph_v2;
use lipstick_workflowgen::dealers::{self, DealersParams};

fn dealers_graph(num_cars: usize, seed: u64) -> ProvGraph {
    let params = DealersParams {
        num_cars,
        num_exec: 2,
        seed,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("dealers run");
    tracker.finish()
}

fn temp_log(name: &str, graph: &ProvGraph) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lipstick-proql-append");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_graph_v2(graph, &path).unwrap();
    // A stale tail from an earlier aborted run would otherwise replay
    // on open (the header binding only rejects tails for a *different*
    // base).
    let mut tail = path.clone().into_os_string();
    tail.push(".tail");
    std::fs::remove_file(tail).ok();
    path
}

/// A read's answer, comparable across backends: a node set by its ids
/// (the visited figure is backend-shaped), anything else as rendered.
fn answer(session: &Session, stmt: &str) -> String {
    match session.run_read(stmt) {
        Ok(out) => match out.nodes() {
            Some(ns) => format!("{:?}", ns.nodes),
            None => out.to_string(),
        },
        Err(e) => e.to_string(),
    }
}

fn nodes_of(out: &QueryOutput) -> Vec<u32> {
    out.nodes()
        .expect("node set")
        .nodes
        .iter()
        .map(|n| n.0)
        .collect()
}

/// With a reach index built, every backend's `STATS` says so and sums
/// its `memory total=` over the components `Session::heap_bytes()`
/// sums, and `BUILD INDEX` answers with the bytes the memory report
/// files under `reach`.
#[test]
fn stats_and_build_index_report_the_session_heap_on_every_backend() {
    let g = dealers_graph(24, 7);
    let path = temp_log("stats-reach.lpstk", &g);
    let sessions = [
        ("resident", Session::new(g)),
        ("paged", Session::open(&path).unwrap()),
        ("append", Session::open_append(&path).unwrap()),
    ];
    for (backend, mut session) in sessions {
        // A scan builds the resident graph's postings, which the heap
        // report then counts.
        session.run_read("MATCH base-nodes").unwrap();
        let reply = session.run_one("BUILD INDEX").unwrap().to_string();
        let reach: usize = session
            .memory_report()
            .iter()
            .filter(|(group, _, _)| *group == "reach")
            .map(|(_, _, bytes)| bytes)
            .sum();
        assert!(reach > 0, "{backend}");
        assert_eq!(
            reply,
            format!("reach index built ({reach} bytes)"),
            "{backend}"
        );

        let stats = session.run_read("STATS").unwrap().to_string();
        assert!(stats.contains("reach index: present"), "{backend}: {stats}");
        let total: usize = stats
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix("memory total=")?
                    .split(' ')
                    .next()?
                    .parse()
                    .ok()
            })
            .expect("a memory total line");
        assert_eq!(total, session.heap_bytes(), "{backend}: {stats}");
        if backend == "resident" {
            let postings = session
                .memory_report()
                .into_iter()
                .find(|&(group, name, _)| (group, name) == ("graph", "postings"))
                .map(|(_, _, bytes)| bytes)
                .expect("built postings are reported");
            assert!(postings > 0);
            let line = format!("memory graph.postings={postings}\n");
            assert!(stats.contains(&line), "{stats}");
        }
    }
}

/// A resident session's memory lines follow the graph's layout — its
/// node table, pred buffer and successor index, no per-node lists — and
/// their sum is `memory total=` and `Session::heap_bytes()`, before and
/// after a zoom pair whose moved spans leave holes in both edge arrays
/// (a loaded graph's arrays are exact-size, so any hole shows).
#[test]
fn resident_memory_lines_follow_the_node_table_and_edge_arrays() {
    let path = temp_log("memory-lines.lpstk", &dealers_graph(24, 7));
    let mut session = Session::load(&path).unwrap();
    let lines = |session: &Session| -> Vec<(String, usize)> {
        let stats = session.run_read("STATS").unwrap().to_string();
        let parse = |l: &str| {
            let (name, bytes) = l.trim().strip_prefix("memory ")?.split_once('=')?;
            Some((name.to_string(), bytes.split(' ').next()?.parse().ok()?))
        };
        stats.lines().filter_map(parse).collect()
    };
    let component = |lines: &[(String, usize)], name: &str| {
        lines.iter().find(|(n, _)| n == name).map(|&(_, b)| b)
    };
    let mut edges = Vec::new();
    for step in ["fresh", "after ZOOM OUT and ZOOM IN"] {
        if step != "fresh" {
            session.run_one("ZOOM OUT TO Mdealer1").unwrap();
            session.run_one("ZOOM IN TO Mdealer1").unwrap();
        }
        let lines = lines(&session);
        let (parts, total): (Vec<_>, Vec<_>) = lines.iter().partition(|(n, _)| n != "total");
        let sum: usize = parts.iter().map(|(_, b)| b).sum();
        assert_eq!(
            total,
            vec![&("total".to_string(), sum)],
            "{step}: {lines:?}"
        );
        assert_eq!(sum, session.heap_bytes(), "{step}");
        for name in ["graph.node_arena", "graph.preds", "graph.succ_index"] {
            assert!(component(&lines, name).unwrap_or(0) > 0, "{step}: {name}");
        }
        assert_eq!(component(&lines, "graph.adjacency"), None, "{step}");
        edges.push((
            component(&lines, "graph.preds").unwrap(),
            component(&lines, "graph.succ_index").unwrap(),
        ));
    }
    // ZOOM OUT appended the composites' edges by moving the touched
    // spans to the ends of both buffers; ZOOM IN shrank them in place.
    // The holes stay allocated, and counted.
    assert!(
        edges[1].0 > edges[0].0 && edges[1].1 > edges[0].1,
        "{edges:?}"
    );
}

/// `records_read` must never go backwards — not across reads, not
/// across append-committed mutations, and not across `COMPACT`, which
/// swings a new sealed base in (the pre-compaction fault count is
/// banked). The
/// new base holds the old one's records byte for byte, so it keeps the
/// old one's fault cache: a read repeated after the COMPACT decodes
/// nothing it had already decoded.
#[test]
fn records_read_is_monotonic_across_mutations_and_compaction() {
    let g = dealers_graph(24, 7);
    let path = temp_log("monotonic.lpstk", &g);
    let mut session = Session::open_append(&path).unwrap();
    assert_eq!(session.records_read(), 0, "opening decodes no records");

    let mut floor = 0usize;
    let step = |session: &mut Session, stmt: &str, floor: &mut usize| {
        session.run_one(stmt).unwrap();
        let now = session.records_read();
        assert!(
            now >= *floor,
            "records_read went backwards after {stmt}: {} -> {now}",
            *floor
        );
        *floor = now;
    };

    step(
        &mut session,
        "MATCH base-nodes WHERE token LIKE '%'",
        &mut floor,
    );
    assert!(floor > 0, "an uncached read faults records in");
    step(&mut session, "DELETE #0 PROPAGATE", &mut floor);
    step(&mut session, "MATCH m-nodes", &mut floor);
    step(
        &mut session,
        "MATCH base-nodes WHERE token LIKE '%'",
        &mut floor,
    );
    let warm = floor;
    step(&mut session, "COMPACT", &mut floor);
    step(
        &mut session,
        "MATCH base-nodes WHERE token LIKE '%'",
        &mut floor,
    );
    step(&mut session, "MATCH m-nodes", &mut floor);
    assert_eq!(floor, warm, "the fault cache survives COMPACT");
    assert!(session.is_append(), "the backend never changes flavour");
}

/// `Session::ingest` parity: appending a fragment to an append session
/// (one durable tail record) and splicing the same fragment into a
/// resident session must yield the same ids and the same answers.
#[test]
fn ingest_agrees_between_append_and_resident_backends() {
    let base = dealers_graph(24, 7);
    let fragment = dealers_graph(6, 99);
    let path = temp_log("ingest.lpstk", &base);

    let mut append = Session::open_append(&path).unwrap();
    let mut resident = Session::load(&path).unwrap();

    let a_ids = append.ingest(&fragment).unwrap();
    let r_ids = resident.ingest(&fragment).unwrap();
    assert_eq!(a_ids, r_ids, "both backends assign the same new ids");
    assert_eq!(a_ids.len(), fragment.len());

    for stmt in [
        "MATCH base-nodes".to_string(),
        "MATCH m-nodes WHERE execution < 1".to_string(),
        format!("DESCENDANTS OF #{} DEPTH 2", a_ids[0].0),
        "COUNT(*) MATCH nodes".to_string(),
    ] {
        let a = append.run_one(&stmt).unwrap().to_string();
        let r = resident.run_one(&stmt).unwrap().to_string();
        // Node sets compare exactly; rendered costs are backend-shaped,
        // so compare counts through their full rendering only when the
        // statement has no visited figure.
        if let (Ok(a_out), Ok(r_out)) = (append.run_read(&stmt), resident.run_read(&stmt)) {
            if a_out.nodes().is_some() {
                assert_eq!(nodes_of(&a_out), nodes_of(&r_out), "{stmt}");
                continue;
            }
        }
        assert_eq!(a, r, "{stmt}");
    }
    assert!(append.is_append());

    // Once COMPACT has folded the fragment into the log, a paged
    // session is a snapshot of it: it answers as the append session
    // does, and refuses the same ingest, changing nothing.
    append.run_one("COMPACT").unwrap();
    let mut paged = Session::open(&path).unwrap();
    let count = "COUNT(*) MATCH nodes";
    let state = |s: &Session| {
        let stats = s.run_read("STATS").unwrap().to_string();
        (
            s.records_read(),
            stats,
            s.run_read(count).unwrap().to_string(),
        )
    };
    let before = state(&paged);
    assert_eq!(before.2, append.run_read(count).unwrap().to_string());
    let err = paged.ingest(&fragment).unwrap_err();
    assert!(matches!(err, ProqlError::Snapshot(_)), "{err}");
    assert_eq!(state(&paged), before);
}

/// Acked changes live in the `.tail` sidecar until `COMPACT`, so the
/// base file alone is stale: `Session::open` and `Session::load` refuse
/// it with a typed error naming the way out, and leave the sidecar
/// alone. A missing sidecar, a header-only one, or one bound to another
/// base opens as usual; after `COMPACT` both sessions agree with the
/// append session.
#[test]
fn open_and_load_refuse_a_log_with_a_live_tail() {
    let g = dealers_graph(24, 7);
    let path = temp_log("live-tail.lpstk", &g);
    let tail = format!("{}.tail", path.display());
    let mut append = Session::open_append(&path).unwrap();
    append.run_one("DELETE #0 PROPAGATE").unwrap();
    drop(append);
    let acked = std::fs::read(&tail).unwrap();
    for refused in [Session::open(&path).err(), Session::load(&path).err()] {
        let err = refused.expect("a log with a live tail is refused");
        assert!(matches!(err, ProqlError::LiveTail(1)), "{err}");
        let message = err.to_string();
        assert!(
            message.contains("open_append") && message.contains("COMPACT"),
            "{message}"
        );
    }
    assert_eq!(
        std::fs::read(&tail).unwrap(),
        acked,
        "the probe changed the tail"
    );

    let mut append = Session::open_append(&path).unwrap();
    append.run_one("COMPACT").unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    let nodes = append.append_log().unwrap().node_count() as u64;
    for sidecar in [None, Some(len), Some(len + 1)] {
        if let Some(base_len) = sidecar {
            std::fs::write(
                &tail,
                lipstick_storage::tail::encode_header(base_len, nodes),
            )
            .unwrap();
        }
        let paged = Session::open(&path).unwrap();
        let resident = Session::load(&path).unwrap();
        for stmt in ["COUNT(*) MATCH nodes", "WHY #0", "MATCH base-nodes"] {
            let want = answer(&append, stmt);
            assert_eq!(answer(&paged, stmt), want, "{stmt} on {sidecar:?}");
            assert_eq!(answer(&resident, stmt), want, "{stmt} on {sidecar:?}");
        }
    }
    std::fs::remove_file(&tail).ok();
}

/// The memory report accounts for the mutable tail: a non-empty
/// overlay shows up as the `tail_overlay` component, and compaction —
/// which folds everything back into the sealed base — shrinks it while
/// preserving every answer byte for byte.
#[test]
fn memory_report_accounts_for_the_tail_overlay() {
    let g = dealers_graph(24, 7);
    let path = temp_log("overlay-mem.lpstk", &g);
    let mut session = Session::open_append(&path).unwrap();

    let overlay_bytes = |session: &Session| -> usize {
        session
            .memory_report()
            .iter()
            .filter(|(_, component, _)| *component == "tail_overlay")
            .map(|(_, _, bytes)| *bytes)
            .sum()
    };

    let fragment = dealers_graph(6, 99);
    session.ingest(&fragment).unwrap();
    session.run_one("DELETE #0 PROPAGATE").unwrap();
    let dirty = overlay_bytes(&session);
    assert!(dirty > 0, "a non-empty tail must be accounted");
    let before = session.run_one("COUNT(*) MATCH nodes").unwrap().to_string();

    session.run_one("COMPACT").unwrap();
    let clean = overlay_bytes(&session);
    assert!(
        clean < dirty,
        "compaction must shrink the overlay accounting ({dirty} -> {clean})"
    );
    let after = session.run_one("COUNT(*) MATCH nodes").unwrap().to_string();
    assert_eq!(before, after, "compaction preserves answers");

    // And the compacted log is a plain sealed v2 segment: a fresh paged
    // session must see the identical graph.
    drop(session);
    let paged = Session::open(&path).unwrap();
    assert_eq!(
        paged.run_read("COUNT(*) MATCH nodes").unwrap().to_string(),
        after
    );
}

/// An append session reads the index it maintains: after `BUILD INDEX`
/// the planner chooses the reach strategies, the answers equal a
/// resident session's, and both hold across every kind of mutation the
/// append backend commits.
#[test]
fn indexed_append_session_plans_and_answers_through_the_reach_index() {
    let base = dealers_graph(24, 7);
    let fragment = dealers_graph(6, 99);
    let path = temp_log("indexed.lpstk", &base);
    let mut append = Session::open_append(&path).unwrap();
    let mut resident = Session::load(&path).unwrap();

    // A high-fanout node and one of its ancestors, both outside the #0
    // cone the script deletes.
    let doomed = compute_deletion(&base, NodeId(0)).unwrap();
    let probe = *base
        .top_fanout_nodes(base.len())
        .iter()
        .find(|id| !doomed.contains(**id) && !base.node(**id).preds().is_empty())
        .expect("a surviving inner node");
    let source = *ancestors(&base, probe)
        .unwrap()
        .iter()
        .find(|id| !doomed.contains(**id))
        .expect("a surviving ancestor");
    let (probe, source) = (probe.0, source.0);
    let walk = format!("ANCESTORS OF #{probe}");
    let depends = format!("DEPENDS(#{probe}, #{source})");
    let why = format!("WHY #{probe}");
    let reads = [
        walk.clone(),
        format!("DESCENDANTS OF #{probe} WHERE kind = 'module_output'"),
        depends.clone(),
        format!("DEPENDS(#{source}, #{probe})"),
        why.clone(),
        format!("ANCESTORS OF #{probe} INTERSECT DESCENDANTS OF #{source}"),
    ];

    assert!(append.explain(&walk).unwrap().contains("[bfs, "));
    for session in [&mut append, &mut resident] {
        session.run_one("BUILD INDEX").unwrap();
    }

    let check = |append: &Session, resident: &Session, after: &str| {
        let plan = |stmt: &str| append.explain(stmt).unwrap();
        assert!(plan(&walk).contains("reach-index lookup"), "after {after}");
        assert!(
            plan(&depends).contains("reach-index prefilter"),
            "after {after}"
        );
        assert!(
            plan(&why).contains("ancestor cone") && plan(&why).contains("via reach index"),
            "after {after}"
        );
        for stmt in &reads {
            // Plans agree too: an index-backed strategy reads nothing
            // store-specific.
            assert_eq!(plan(stmt), resident.explain(stmt).unwrap(), "{stmt}");
            assert_eq!(
                append.run_read(stmt).unwrap().to_string(),
                resident.run_read(stmt).unwrap().to_string(),
                "{stmt} after {after}"
            );
        }
        assert_eq!(append.index_builds(), 1, "repaired, never rebuilt");
    };

    check(&append, &resident, "BUILD INDEX");
    for stmt in [
        "DELETE #0 PROPAGATE",
        "ZOOM OUT TO Mdealer1",
        "ZOOM IN",
        "COMPACT",
    ] {
        let a = append.run_one(stmt).unwrap().to_string();
        let r = resident.run_one(stmt).unwrap().to_string();
        if stmt != "COMPACT" {
            assert_eq!(a, r, "{stmt}");
        }
        check(&append, &resident, stmt);
    }
    assert_eq!(
        append.ingest(&fragment).unwrap(),
        resident.ingest(&fragment).unwrap()
    );
    check(&append, &resident, "ingest");
    assert!(append.is_append());
}
