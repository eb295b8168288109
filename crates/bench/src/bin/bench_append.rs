//! Machine-readable streaming-append benchmarks.
//!
//! Writes `BENCH_append.json` so the write-path trajectory is tracked
//! across PRs: the WAL-style tail segment lets a mutation commit by
//! appending a durable record and repairing the reach overlay in
//! place, without decoding the sealed log.
//!
//! - `append.first_commit_us`: first `ingest` on a fresh
//!   `Session::open_append` — one durable tail record;
//! - `steady_commit_us` / `delete_us`: the per-mutation cost once the
//!   session is warm (medians over distinct fragments / victims);
//! - `append.compact_ms`: folding the accumulated tail back into a
//!   sealed v2 segment.
//!
//! The run asserts that `COMPACT` preserves the visible node count
//! before any number is written out.
//!
//! Usage: `bench_append [--smoke] [--out PATH]`. `--smoke` shrinks the
//! base log so CI keeps the path built and honest; the default run uses
//! a ≥40k-node dealers workload.

use std::path::PathBuf;
use std::time::Instant;

use lipstick_bench::run_dealers;
use lipstick_core::ProvGraph;
use lipstick_proql::Session;
use lipstick_workflowgen::DealersParams;

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

/// A distinct small fragment per ingest: each commit appends fresh
/// work, the way a live tracker hands over completed workflow runs.
fn fragment(seed: u64) -> ProvGraph {
    run_dealers(
        &DealersParams {
            num_cars: 8,
            num_exec: 1,
            seed,
        },
        true,
    )
    .graph
    .expect("tracking on")
}

fn median_us(mut samples: Vec<u128>) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1e3
}

struct MutationRun {
    first_commit_us: f64,
    steady_commit_us: f64,
    delete_us: f64,
    final_count: String,
}

/// Drive the session through the mutation schedule: `reps` fragment
/// ingests (the first one timed separately — it creates the tail)
/// followed by one `DELETE PROPAGATE` per ingested fragment root.
fn drive(session: &mut Session, fragments: &[ProvGraph]) -> MutationRun {
    let start = Instant::now();
    let mut roots = vec![session.ingest(&fragments[0]).expect("first ingest")[0]];
    let first_commit_us = start.elapsed().as_nanos() as f64 / 1e3;

    let mut steady = Vec::new();
    for frag in &fragments[1..] {
        let start = Instant::now();
        let ids = session.ingest(frag).expect("ingest fragment");
        steady.push(start.elapsed().as_nanos());
        roots.push(ids[0]);
    }

    let mut deletes = Vec::new();
    for root in roots {
        let stmt = format!("DELETE #{} PROPAGATE", root.0);
        let start = Instant::now();
        session.run_one(&stmt).expect("delete fragment root");
        deletes.push(start.elapsed().as_nanos());
    }

    MutationRun {
        first_commit_us,
        steady_commit_us: median_us(steady),
        delete_us: median_us(deletes),
        final_count: session
            .run_one("COUNT(*) MATCH nodes")
            .expect("count")
            .to_string(),
    }
}

fn temp_log(tag: &str, graph: &ProvGraph) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("bench-append-{}-{tag}.lpstk", std::process::id()));
    lipstick_storage::write_graph_v2(graph, &path).expect("write v2 log");
    let mut tail = path.clone().into_os_string();
    tail.push(".tail");
    let _ = std::fs::remove_file(tail);
    path
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_append.json".to_string());

    let base = if smoke {
        run_dealers(
            &DealersParams {
                num_cars: 24,
                num_exec: 2,
                seed: 7,
            },
            true,
        )
        .graph
        .expect("tracking on")
    } else {
        dealers_graph_of_at_least(40_000)
    };
    eprintln!(
        "base log: {} nodes, {} visible",
        base.len(),
        base.visible_count()
    );
    let reps = if smoke { 3 } else { 9 };
    let fragments: Vec<ProvGraph> = (0..reps).map(|i| fragment(9_000 + i as u64)).collect();

    let append_path = temp_log("append", &base);
    let mut append = Session::open_append(&append_path).expect("open append session");
    let a = drive(&mut append, &fragments);
    let tail_records = append.append_log().expect("append backend").tail_records();
    let start = Instant::now();
    append.run_one("COMPACT").expect("compact tail");
    let compact_ms = start.elapsed().as_nanos() as f64 / 1e6;
    let compacted_count = append
        .run_one("COUNT(*) MATCH nodes")
        .expect("count after compact")
        .to_string();
    assert_eq!(a.final_count, compacted_count, "COMPACT preserves answers");
    drop(append);
    let _ = std::fs::remove_file(&append_path);

    eprintln!(
        "first commit {:.1} µs, steady commit {:.1} µs, delete {:.1} µs; \
         compact {compact_ms:.2} ms over {tail_records} tail record(s)",
        a.first_commit_us, a.steady_commit_us, a.delete_us
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"graph_nodes\": {graph_nodes},\n  \
         \"fragment_nodes\": {fragment_nodes},\n  \"fragments\": {reps},\n  \
         \"append\": {{ \"first_commit_us\": {af:.1}, \"steady_commit_us\": {as_:.1}, \
         \"delete_us\": {ad:.1}, \"compact_ms\": {compact_ms:.3}, \
         \"tail_records\": {tail_records} }}\n}}\n",
        graph_nodes = base.len(),
        fragment_nodes = fragments[0].len(),
        af = a.first_commit_us,
        as_ = a.steady_commit_us,
        ad = a.delete_us,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_append.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
