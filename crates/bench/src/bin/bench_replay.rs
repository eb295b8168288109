//! Replay a captured query log against any backend.
//!
//! The capture half lives in `lipstick-serve`: start a server with
//! `ServerConfig.query_log` (or `proql_serve --query-log PATH`) and
//! every statement lands in a JSONL file with a fingerprint of its
//! rendered result. This binary is the replay half: it re-executes the
//! events in capture order and checks byte-identity wherever the output
//! is data rather than measurement (`STATS` / `EXPLAIN ANALYZE` replay
//! but are not compared), then reports the latency histogram and cache
//! hit rate.
//!
//! Usage:
//!
//! ```sh
//! bench_replay --log capture.jsonl --open provenance.lpstk   # paged session
//! bench_replay --log capture.jsonl --load provenance.lpstk   # resident session
//! bench_replay --log capture.jsonl --append provenance.lpstk # append session (WAL tail)
//! bench_replay --log capture.jsonl --connect 127.0.0.1:7433  # running server
//! bench_replay --smoke                                       # self-contained end-to-end check
//! bench_replay ... --out BENCH_replay.json                   # also write the JSON report
//! ```
//!
//! `--smoke` needs no arguments: it generates a workload graph, serves
//! it with the query log enabled, drives a mixed workload (repeats for
//! cache hits, a mutation, a parse error), then replays the capture
//! against a *fresh* server on the same starting log and asserts every
//! comparable payload came back byte-identical. Both servers run the
//! **append** backend: the mutation commits as a durable tail record
//! on each side (a paged server would refuse it), and the replay server
//! starts from the sealed base alone, so the captured mutation must be
//! re-committed through its own tail to reproduce the post-mutation
//! payloads.

use std::path::{Path, PathBuf};

use lipstick_bench::replay::{replay, LocalTarget, ReplayReport, ReplayTarget};
use lipstick_bench::run_dealers;
use lipstick_proql::Session;
use lipstick_serve::qlog::{read_log, QueryLogConfig};
use lipstick_serve::{Client, Server, ServerConfig};
use lipstick_workflowgen::DealersParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag("--out");

    let report = if args.iter().any(|a| a == "--smoke") {
        smoke()
    } else {
        let Some(log) = flag("--log") else {
            eprintln!(
                "usage: bench_replay --log FILE \
                 (--connect ADDR | --open LOG | --load LOG | --append LOG) \
                 [--out PATH] | bench_replay --smoke"
            );
            std::process::exit(2);
        };
        let events = read_log(Path::new(&log));
        if events.is_empty() {
            eprintln!("no events in {log}");
            std::process::exit(2);
        }
        eprintln!("replaying {} event(s) from {log}", events.len());
        let mut target: Box<dyn ReplayTarget> = match (
            flag("--connect"),
            flag("--open"),
            flag("--load"),
            flag("--append"),
        ) {
            (Some(addr), None, None, None) => {
                Box::new(Client::connect(addr.as_str()).expect("connect to server"))
            }
            (None, Some(path), None, None) => {
                Box::new(LocalTarget(Session::open(&path).expect("open paged log")))
            }
            (None, None, Some(path), None) => Box::new(LocalTarget(
                Session::load(&path).expect("load provenance log"),
            )),
            (None, None, None, Some(path)) => Box::new(LocalTarget(
                Session::open_append(&path).expect("open append log"),
            )),
            _ => {
                eprintln!(
                    "pick exactly one backend: --connect ADDR, --open LOG, --load LOG, \
                     or --append LOG"
                );
                std::process::exit(2);
            }
        };
        replay(&events, target.as_mut()).expect("replay transport failed")
    };

    print!("{}", report.render());
    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json()).expect("write report");
        eprintln!("wrote {path}");
    }
    if !report.identical() {
        std::process::exit(1);
    }
}

/// Capture a workload on one server, replay it on a fresh one, and
/// assert byte-identity — the end-to-end check CI runs.
fn smoke() -> ReplayReport {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let log_path = tmp.join(format!("bench-replay-{pid}.lpstk"));
    let qlog_path = tmp.join(format!("bench-replay-{pid}.jsonl"));
    let _ = std::fs::remove_file(&qlog_path);

    let graph = run_dealers(
        &DealersParams {
            num_cars: 24,
            num_exec: 2,
            seed: 7,
        },
        true,
    )
    .graph
    .expect("tracking on");
    lipstick_storage::write_graph_v2(&graph, &log_path).expect("write v2 log");
    {
        // A stale tail from an aborted earlier run (pid reuse) would
        // replay into the append-backed replay server below.
        let mut stale = log_path.clone().into_os_string();
        stale.push(".tail");
        let _ = std::fs::remove_file(PathBuf::from(stale));
    }

    // -- capture --
    let workload = [
        "MATCH base-nodes",
        "MATCH base-nodes", // repeat: cache hit
        "match base-nodes", // same key after normalization: cache hit
        "COUNT(*) MATCH base-nodes",
        "MATCH m-nodes WHERE execution < 2",
        "ANCESTORS OF #5 DEPTH 3",
        "STATS",               // replays, but excluded from identity
        "TOTALLY NOT PROQL",   // parse errors are events too
        "DELETE #2 PROPAGATE", // tail-committed mutation: epoch bump, cache flush
        "MATCH base-nodes",    // post-mutation miss, then...
        "MATCH base-nodes",    // ...hit at the new epoch
        "EXPLAIN MATCH base-nodes UNION MATCH m-nodes",
    ];
    let capture = Server::new(
        Session::open_append(&log_path).expect("open for capture"),
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            query_log: Some(QueryLogConfig::new(&qlog_path)),
            trace_sample_every: 4,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .expect("serve capture");
    let mut client = Client::connect(capture.addr()).expect("connect capture");
    for stmt in &workload {
        client.query(stmt).expect("capture statement");
    }
    assert_eq!(
        capture.query_log_events(),
        workload.len() as u64,
        "every statement must be captured"
    );
    assert!(
        capture.slow_log_len() > 0,
        "1-in-4 trace sampling must retain traces even for fast reads"
    );
    drop(client);
    capture.shutdown();

    let events = read_log(&qlog_path);
    assert_eq!(events.len(), workload.len(), "capture file must parse back");
    let captured_hits = events.iter().filter(|e| e.cache_hit).count();
    assert!(captured_hits >= 3, "workload repeats must hit the cache");

    // -- replay against a fresh server on the same starting log --
    // Drop the capture's tail first: the replay server must start from
    // the sealed base alone and re-commit the captured mutation as its
    // *own* durable tail record to reproduce the post-mutation
    // payloads byte-for-byte.
    {
        let mut tail = log_path.clone().into_os_string();
        tail.push(".tail");
        std::fs::remove_file(PathBuf::from(tail)).expect("capture left a tail segment");
    }
    let replay_session = Session::open_append(&log_path).expect("open for replay");
    let fresh = Server::new(
        replay_session,
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .expect("serve replay");
    let mut target = Client::connect(fresh.addr()).expect("connect replay");
    let report = replay(&events, &mut target).expect("replay");
    drop(target);
    fresh.shutdown();
    let _ = std::fs::remove_file(&log_path);
    let mut tail_path = log_path.into_os_string();
    tail_path.push(".tail");
    let _ = std::fs::remove_file(PathBuf::from(tail_path));
    cleanup_qlog(&qlog_path);

    assert!(
        report.identical(),
        "replay must be byte-identical: {}",
        report.render()
    );
    assert!(
        report.replay_cache_hits >= 3,
        "replay must reproduce the cache hits"
    );
    eprintln!("smoke: capture/replay round trip byte-identical");
    report
}

/// Remove the capture file and any rotated generations beside it.
fn cleanup_qlog(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    for generation in 0..16u64 {
        let mut archived = path.as_os_str().to_os_string();
        archived.push(format!(".{generation}"));
        let _ = std::fs::remove_file(PathBuf::from(archived));
    }
}
