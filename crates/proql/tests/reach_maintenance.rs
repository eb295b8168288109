//! Property test: the incrementally-repaired reach index equals a
//! from-scratch `ReachIndex::build` and an independent BFS after random
//! delete/zoom sequences.
//!
//! The session repairs the closure in place on every mutation (deletion
//! subtracts the dead cone; zooms remap the affected region, adding
//! empty rows for appended composite nodes). This harness drives random
//! WorkflowGen graphs through random mutation scripts and checks the
//! maintained index after *every* step, in both directions: against a
//! fresh build (exact equality of the sorted id rows), and against an
//! unbounded `core::query::traverse` from every visible node, which
//! shares no code with the index — a build is itself a repair, so the
//! fresh-build oracle alone would compare the row kernel with itself.
//! Arctic's dense topology (fully bipartite layers, the worst case for
//! closure size) gets an explicit case beside the random graphs. The
//! case budget honours `PROPTEST_CASES` like the other property suites.
//!
//! The same generator drives a second property: a store's visible
//! count — maintained by the resident graph, derived in O(tail) by the
//! append log — equals a sweep of its visibility index after every way
//! a graph is built, mutated, persisted or reloaded. So do its module
//! and kind postings, which the resident graph drops on every mutation
//! and rebuilds on the next read, and which its v2 footer must repeat.

use lipstick_core::graph::validate::check_structure;
use lipstick_core::graph::ShardTracker;
use lipstick_core::query::{traverse, Direction, ReachIndex};
use lipstick_core::{GraphStore, GraphTracker, NodeId, NodeKind, ProvGraph, Tracker};
use lipstick_proql::ast::Statement;
use lipstick_proql::testgen::{self, Rng, Vocab};
use lipstick_proql::{ProqlError, Session};
use lipstick_storage::{encode_graph_v2, write_graph, write_graph_v2, LogIndex};
use lipstick_workflowgen::arctic::{self, ArcticParams, Selectivity, Topology};
use lipstick_workflowgen::dealers::{self, DealersParams};

/// Mutations per generated graph.
const MUTATIONS_PER_GRAPH: usize = 12;

fn case_budget() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

fn random_graph(rng: &mut Rng) -> ProvGraph {
    random_tracker(rng).finish()
}

fn random_tracker(rng: &mut Rng) -> GraphTracker {
    let mut tracker = GraphTracker::new();
    if rng.chance(50) {
        let params = DealersParams {
            num_cars: 6 + rng.below(16),
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
    tracker
}

/// Drive `graph` through `mutations` random mutation statements on an
/// indexed session, checking the maintained index after every step.
fn mutate_and_check(graph: ProvGraph, mutations: usize, rng: &mut Rng) {
    let vocab = Vocab::from_graph(&graph);
    let mut session = Session::new(graph);
    session.run_one("BUILD INDEX").unwrap();
    let mut builds = 1;
    assert_eq!(session.index_builds(), builds);
    let built = session.reach_index().expect("just built");
    assert_matches_bfs(built, session.graph(), rng, "BUILD INDEX");

    for _ in 0..mutations {
        let stmt = testgen::mutation(&vocab, rng);
        // Failed mutations (dangling deletes, double zooms) must leave
        // the index untouched; successful ones must repair it exactly.
        // Either way the oracles below decide.
        let _ = session.run_one(&stmt.to_string());
        if stmt == Statement::DropIndex {
            // The one way to lose the index: build it afresh so the
            // rest of the script still exercises repair.
            assert!(!session.has_reach_index(), "DROP INDEX drops it");
            session.run_one("BUILD INDEX").unwrap();
            builds += 1;
        }
        let index = session
            .reach_index()
            .expect("mutations repair, never drop, the index");
        assert!(
            index.matches_fresh_build(session.graph()),
            "maintained index diverged from fresh build after: {stmt}"
        );
        assert_matches_bfs(index, session.graph(), rng, &stmt.to_string());
    }

    // Incremental maintenance means the build counter moved only for
    // the rebuilds after a DROP INDEX, whatever else the script did.
    assert_eq!(session.index_builds(), builds, "silent rebuild detected");
}

/// The independent oracle: every visible node's rows equal an unbounded
/// BFS in that direction, its counts equal those BFS sizes (the row
/// lengths), and `reaches` agrees with the rows on sampled pairs.
fn assert_matches_bfs(index: &ReachIndex, graph: &ProvGraph, rng: &mut Rng, after: &str) {
    let visible: Vec<NodeId> = graph.iter_visible().map(|(id, _)| id).collect();
    let bfs = |v: NodeId, direction: Direction| {
        traverse(graph, v, direction, None, |_| true)
            .expect("visible root")
            .0
    };
    for &v in &visible {
        let descendants = bfs(v, Direction::Descendants);
        let ancestors = bfs(v, Direction::Ancestors);
        assert_eq!(
            index.descendant_count(v),
            descendants.len(),
            "{v} after {after}"
        );
        assert_eq!(
            index.ancestor_count(v),
            ancestors.len(),
            "{v} after {after}"
        );
        assert_eq!(
            index.descendants(v),
            descendants,
            "descendants of {v} after {after}"
        );
        assert_eq!(
            index.ancestors(v),
            ancestors,
            "ancestors of {v} after {after}"
        );
    }
    for _ in 0..visible.len().min(64) {
        let a = visible[rng.below(visible.len())];
        let b = visible[rng.below(visible.len())];
        assert_eq!(
            index.reaches(a, b),
            index.descendants(a).contains(&b),
            "reaches({a}, {b}) after {after}"
        );
    }
}

#[test]
fn repaired_index_is_bit_identical_to_fresh_build() {
    let budget = case_budget();
    let mut rng = Rng::new(0x005e_a1c1_050f_f1ce);
    let mut executed = 0usize;
    while executed < budget {
        let graph = random_graph(&mut rng);
        let steps = MUTATIONS_PER_GRAPH.min(budget - executed);
        mutate_and_check(graph, steps, &mut rng);
        executed += steps;
    }
}

/// Bipartite layers, every station of one layer feeding every station
/// of the next, are the worst case for a closure's size.
#[test]
fn dense_arctic_index_matches_bfs_through_mutations() {
    let params = ArcticParams {
        stations: 12,
        topology: Topology::Dense { fanout: 6 },
        selectivity: Selectivity::Year,
        num_exec: 2,
        seed: 6,
    };
    let mut tracker = GraphTracker::new();
    arctic::run(&params, &mut tracker).expect("arctic run");
    let mut rng = Rng::new(0x0de5_e6a2_c1c0_0006);
    mutate_and_check(tracker.finish(), MUTATIONS_PER_GRAPH, &mut rng);
}

/// `check_structure` compares the maintained count against a sweep of
/// the arena (and re-checks adjacency symmetry while it is there).
fn assert_count_matches_arena(graph: &ProvGraph, after: &str) {
    if let Err(e) = check_structure(graph) {
        panic!("after {after}: {e}");
    }
}

/// A worker shard deriving one module's worth of nodes from two
/// imported global nodes, merged the way the parallel executor does.
fn absorb_random_shard(tracker: &mut GraphTracker, rng: &mut Rng) {
    let globals = tracker.graph().len();
    let mut shard = ShardTracker::new();
    let a = shard.import(NodeId(rng.below(globals) as u32));
    let b = shard.import(NodeId(rng.below(globals) as u32));
    shard.begin_invocation("Mshard", 0);
    let i = shard.module_input(a);
    let s = shard.state_node(b);
    let joined = shard.times(&[i, s]);
    let kept = shard.plus(&[joined]);
    shard.module_output(kept, &[]);
    shard.end_invocation();
    tracker.absorb_shard(shard);
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lipstick-proql-visible-count");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The append log's count (sealed popcount adjusted over the tail)
/// against a sweep of its visibility — and against the resident session
/// the same script drove.
fn assert_append_count_matches_sweep(append: &Session, resident: &Session, after: &str) {
    let log = append.append_log().expect("append session");
    let sweep = (0..log.node_count() as u32)
        .filter(|i| log.is_visible(NodeId(*i)))
        .count();
    assert_eq!(log.visible_count(), sweep, "append log after {after}");
    assert_eq!(
        sweep,
        resident.graph().visible_count(),
        "append and resident sessions diverged after {after}"
    );
}

#[test]
fn visible_count_matches_arena_after_every_step() {
    let budget = case_budget();
    let mut rng = Rng::new(0x00c0_ffee_0fa1_15ee);
    let v1 = temp_path("round_trip_v1.lpstk");
    let v2 = temp_path("round_trip_v2.lpstk");
    let tailed = temp_path("append.lpstk");
    let mut executed = 0usize;

    while executed < budget {
        let mut tracker = random_tracker(&mut rng);
        assert_count_matches_arena(tracker.graph(), "tracking");
        absorb_random_shard(&mut tracker, &mut rng);
        let graph = tracker.finish();
        assert_count_matches_arena(&graph, "absorb_shard");
        let vocab = Vocab::from_graph(&graph);
        let fragment = random_graph(&mut rng);
        // The same script drives an append session over the same graph.
        write_graph_v2(&graph, &tailed).unwrap();
        std::fs::remove_file(format!("{}.tail", tailed.display())).ok();
        let mut append = Session::open_append(&tailed).unwrap();
        let mut session = Session::new(graph);

        for _ in 0..MUTATIONS_PER_GRAPH.min(budget - executed) {
            let step = match rng.below(100) {
                0..=69 => {
                    let stmt = testgen::mutation(&vocab, &mut rng).to_string();
                    // Failed mutations must leave the count alone too.
                    let _ = session.run_one(&stmt);
                    let _ = append.run_one(&stmt);
                    stmt
                }
                70..=79 => {
                    session.ingest(&fragment).expect("resident ingest");
                    append.ingest(&fragment).expect("append ingest");
                    "Session::ingest".to_string()
                }
                reload => {
                    // The codecs (and COMPACT) refuse a graph with
                    // active zooms.
                    session.run_one("ZOOM IN").expect("zoom in everything");
                    append.run_one("ZOOM IN").expect("zoom in everything");
                    if reload < 90 {
                        write_graph(session.graph(), &v1).unwrap();
                        session = Session::load(&v1).unwrap();
                        append.run_one("COMPACT").expect("compact");
                        "v1 write + load / COMPACT".to_string()
                    } else {
                        write_graph_v2(session.graph(), &v2).unwrap();
                        assert_paged_snapshot_refuses_changes(&v2, &session);
                        session = Session::load(&v2).unwrap();
                        append = Session::open_append(&tailed).unwrap();
                        "v2 write + open + load / tail replay".to_string()
                    }
                }
            };
            assert_count_matches_arena(session.graph(), &step);
            assert_append_count_matches_sweep(&append, &session, &step);
            assert_resident_postings(session.graph(), &step);
            let log = append.append_log().expect("append session");
            assert_postings_match_sweep(log, &format!("append log after {step}"));
            executed += 1;
        }
    }
}

/// Every module and every kind posting of `store` equals a sweep of
/// its visible nodes.
fn assert_postings_match_sweep<S: GraphStore>(store: &S, what: &str) {
    let visible: Vec<NodeId> = (0..store.node_count() as u32)
        .map(NodeId)
        .filter(|&id| store.is_visible(id))
        .collect();
    for m in module_names(store) {
        let owned = |id: &NodeId| {
            let inv = store.role_of(*id).invocation();
            inv.is_some_and(|inv| store.invocation(inv).module == m)
        };
        let sweep: Vec<NodeId> = visible.iter().copied().filter(owned).collect();
        assert_eq!(*store.module_postings(m), *sweep, "{what}: module {m}");
    }
    for k in NodeKind::NAMES {
        let sweep: Vec<NodeId> = visible
            .iter()
            .copied()
            .filter(|id| store.kind_of(*id).name() == k)
            .collect();
        assert_eq!(*store.kind_postings(k), *sweep, "{what}: kind {k}");
    }
}

fn module_names<S: GraphStore>(store: &S) -> Vec<&str> {
    let mut names: Vec<&str> = store
        .invocations()
        .iter()
        .map(|i| i.module.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// The resident graph's postings equal a sweep and, while no module is
/// zoomed out (a zoomed graph does not encode), the footer postings of
/// its v2 bytes.
fn assert_resident_postings(graph: &ProvGraph, after: &str) {
    assert_postings_match_sweep(graph, &format!("resident graph after {after}"));
    let Ok(bytes) = encode_graph_v2(graph) else {
        assert!(!graph.zoomed_out_modules().is_empty(), "after {after}");
        return;
    };
    let footer = LogIndex::parse(&bytes, graph.len()).unwrap();
    for m in module_names(graph) {
        assert_eq!(
            footer.module_postings(m),
            &*graph.module_postings(m),
            "footer after {after}: module {m}"
        );
    }
    for k in NodeKind::NAMES {
        assert_eq!(
            footer.kind_postings(k),
            &*graph.kind_postings(k),
            "footer after {after}: kind {k}"
        );
    }
}

/// A paged session over the v2 log is a read-only snapshot of it: it
/// counts what the resident session counts, and refuses a change
/// before reading a record, leaving that count, its node count and its
/// answers where they were.
fn assert_paged_snapshot_refuses_changes(v2: &std::path::Path, resident: &Session) {
    let mut paged = Session::open(v2).unwrap();
    let count = "COUNT(*) MATCH nodes";
    let state = |paged: &Session| {
        let stats = paged.run_read("STATS").unwrap().to_string();
        (
            paged.records_read(),
            stats,
            paged.run_read(count).unwrap().to_string(),
        )
    };
    let before = state(&paged);
    assert_eq!(before.2, resident.run_read(count).unwrap().to_string());
    for stmt in ["DELETE #0 PROPAGATE", "ZOOM IN"] {
        let err = paged.run_one(stmt).unwrap_err();
        assert!(matches!(err, ProqlError::Snapshot(_)), "{stmt}: {err}");
        assert_eq!(state(&paged), before, "after {stmt}");
    }
}
