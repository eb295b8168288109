//! Machine-readable reach-index benchmarks.
//!
//! Writes `BENCH_reach.json` so the perf trajectory of the
//! bidirectional, incrementally-maintained reach index is tracked
//! across PRs:
//!
//! - `build`: time to build the bidirectional closure on a ≥10k-node
//!   dealers graph, and its memory footprint;
//! - `ancestor_query`: indexed upward lookups vs the BFS they replace
//!   (the paper's Figure 7 ancestor workload), on the largest ancestor
//!   cones in the graph;
//! - `incremental_repair`: in-place repair after a small
//!   `DELETE PROPAGATE` cone vs the full rebuild it replaces;
//! - `heap`: exact heap-byte breakdowns (closure rows, CSR, postings,
//!   resident graph) from the `HeapSize` accounting, so index memory
//!   regressions are as visible as time regressions.
//!
//! Usage: `bench_reach [--smoke] [--out PATH]`. `--smoke` runs one
//! iteration of everything (CI keeps it in the build to catch rot);
//! the default run uses enough iterations for stable medians.

use std::time::Instant;

use lipstick_bench::{run_dealers, top_nodes_by};
use lipstick_core::obs::HeapSize;
use lipstick_core::query::{ancestors_bounded, propagate_deletion_inplace, ReachIndex};
use lipstick_core::{NodeId, ProvGraph};
use lipstick_proql::Session;
use lipstick_workflowgen::DealersParams;

/// Median wall-clock of `reps` runs of `f`, in nanoseconds.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u128 {
    let mut samples: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn dealers_graph_of_at_least(nodes: usize) -> ProvGraph {
    let mut num_exec = 10;
    loop {
        let g = run_dealers(
            &DealersParams {
                num_cars: 200,
                num_exec,
                seed: 1_000_003,
            },
            true,
        )
        .graph
        .expect("tracking on");
        if g.len() >= nodes || num_exec >= 320 {
            assert!(g.len() >= nodes, "workload too small: {} nodes", g.len());
            return g;
        }
        num_exec *= 2;
    }
}

/// A base node with a small, non-empty deletion cone: the incremental
/// repair's advertised case (a targeted what-if delete, not a graph
/// teardown).
fn small_delete_victim(g: &ProvGraph, index: &ReachIndex) -> NodeId {
    g.iter_visible()
        .map(|(id, _)| id)
        .filter(|id| index.descendant_count(*id) > 0)
        .min_by_key(|id| index.descendant_count(*id))
        .expect("graph has internal nodes")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_reach.json".to_string());
    let reps = if smoke { 1 } else { 15 };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ---- build ----
    let g = dealers_graph_of_at_least(10_000);
    eprintln!("graph: {} nodes, {} visible", g.len(), g.visible_count());
    let build_ns = median_ns(reps, || ReachIndex::build(&g));
    let index = ReachIndex::build(&g);
    let memory_bytes = index.memory_bytes();
    eprintln!(
        "build: {:.2} ms, {:.1} MiB",
        build_ns as f64 / 1e6,
        memory_bytes as f64 / (1024.0 * 1024.0)
    );

    // ---- ancestor queries: BFS vs indexed ----
    // Deepest nodes (largest ancestor cones): the worst case for the
    // upward direction the old index could not serve.
    let roots = top_nodes_by(&g, 8, |id| index.ancestor_count(id));
    let bfs_ns = median_ns(reps, || {
        roots
            .iter()
            .map(|&r| ancestors_bounded(&g, r, None).expect("visible").len())
            .sum::<usize>()
    });
    let indexed_ns = median_ns(reps, || {
        roots
            .iter()
            .map(|&r| index.ancestors(r).len())
            .sum::<usize>()
    });
    // Same answers, by construction — belt and braces before timing
    // claims go into a tracked artifact.
    for &r in &roots {
        assert_eq!(
            ancestors_bounded(&g, r, None).unwrap().nodes,
            index.ancestors(r),
            "indexed ancestors must equal BFS for {r}"
        );
    }
    let ancestor_speedup = bfs_ns as f64 / indexed_ns.max(1) as f64;
    eprintln!(
        "ancestors (8 deepest roots): bfs {:.1} µs, indexed {:.1} µs, speedup {ancestor_speedup:.1}×",
        bfs_ns as f64 / 1e3,
        indexed_ns as f64 / 1e3
    );

    // The indexed plan is what EXPLAIN promises; record the plan line
    // alongside the numbers it justifies.
    let mut session = Session::new(g.clone());
    session.run_one("BUILD INDEX").unwrap();
    let explain = session
        .explain(&format!("ANCESTORS OF #{}", roots[0].0))
        .unwrap();
    assert!(
        explain.contains("reach-index lookup") && explain.contains("ancestor closure"),
        "EXPLAIN must report an index-served ancestor plan, got: {explain}"
    );

    // ---- incremental repair vs full rebuild after a small delete ----
    let victim = small_delete_victim(&g, &index);
    let mut deleted_graph = g.clone();
    let report = propagate_deletion_inplace(&mut deleted_graph, victim).expect("visible victim");
    eprintln!(
        "delete victim #{}: cone of {} node(s)",
        victim.0,
        report.deleted.len()
    );
    // Repair is idempotent (it recomputes the affected region from the
    // post-mutation graph), so re-running it on the repaired index does
    // the same work as the first repair — which keeps the 30 MiB index
    // clone out of the timed region.
    let mut repaired = index.clone();
    let repair_ns = median_ns(reps, || repaired.repair(&deleted_graph, &report.deleted));
    let rebuild_ns = median_ns(reps, || ReachIndex::build(&deleted_graph));
    assert!(
        repaired.matches_fresh_build(&deleted_graph),
        "repair must be bit-identical to a rebuild"
    );
    let repair_speedup = rebuild_ns as f64 / repair_ns.max(1) as f64;
    eprintln!(
        "repair {:.2} ms vs rebuild {:.2} ms, speedup {repair_speedup:.1}×",
        repair_ns as f64 / 1e6,
        rebuild_ns as f64 / 1e6
    );

    // ---- heap-byte breakdowns ----
    // The same `HeapSize` accounting behind `STATS` and the
    // `lipstick_*_heap_bytes` gauges, recorded per component: closure
    // rows from the reach index, CSR + postings from the v2 footer
    // index of the same graph, and the resident graph itself.
    let reach_heap = index.heap_breakdown();
    let graph_heap_bytes = g.heap_bytes();
    let log_index_heap = {
        let path = std::env::temp_dir().join(format!("bench-reach-{}.lpstk", std::process::id()));
        lipstick_storage::write_graph_v2(&g, &path).expect("write v2 log");
        let paged = lipstick_storage::PagedLog::open(&path).expect("open v2 log");
        let breakdown = paged.index().heap_breakdown();
        std::fs::remove_file(&path).ok();
        breakdown
    };
    let render_components = |components: &[(&'static str, usize)]| {
        components
            .iter()
            .map(|(name, bytes)| format!("\"{name}\": {bytes}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!(
        "heap: reach {:.1} MiB, graph {:.1} MiB, log index {:.1} MiB",
        reach_heap.iter().map(|(_, b)| b).sum::<usize>() as f64 / (1024.0 * 1024.0),
        graph_heap_bytes as f64 / (1024.0 * 1024.0),
        log_index_heap.iter().map(|(_, b)| b).sum::<usize>() as f64 / (1024.0 * 1024.0),
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"host_threads\": {host_threads},\n  \
         \"graph_nodes\": {graph_nodes},\n  \
         \"build\": {{ \"ms\": {build_ms:.3}, \"memory_bytes\": {memory_bytes} }},\n  \
         \"ancestor_query\": {{ \"roots\": {nroots}, \"bfs_us\": {bfs_us:.1}, \
         \"indexed_us\": {indexed_us:.1}, \"speedup\": {ancestor_speedup:.2} }},\n  \
         \"incremental_repair\": {{ \"deleted_cone\": {cone}, \"repair_ms\": {repair_ms:.3}, \
         \"rebuild_ms\": {rebuild_ms:.3}, \"speedup\": {repair_speedup:.2} }},\n  \
         \"heap\": {{ \"reach\": {{ {reach_heap_json} }}, \"graph_bytes\": {graph_heap_bytes}, \
         \"log_index\": {{ {log_index_json} }} }}\n}}\n",
        graph_nodes = g.len(),
        build_ms = build_ns as f64 / 1e6,
        nroots = roots.len(),
        bfs_us = bfs_ns as f64 / 1e3,
        indexed_us = indexed_ns as f64 / 1e3,
        cone = report.deleted.len(),
        repair_ms = repair_ns as f64 / 1e6,
        rebuild_ms = rebuild_ns as f64 / 1e6,
        reach_heap_json = render_components(&reach_heap),
        log_index_json = render_components(&log_index_heap),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_reach.json");
    eprintln!("wrote {out_path}");
    print!("{json}");

    if !smoke {
        // The headline claims this artifact exists to track.
        assert!(
            ancestor_speedup >= 5.0,
            "indexed ancestors must be ≥5× BFS (got {ancestor_speedup:.2}×)"
        );
        assert!(
            repair_speedup > 1.0,
            "incremental repair must beat a full rebuild (got {repair_speedup:.2}×)"
        );
    }
}
