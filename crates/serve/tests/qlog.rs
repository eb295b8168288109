//! The query log as a trace. Rotation properties: whatever sequence of
//! events is appended and however often the file rotates underneath
//! them, reading the log back must yield every event exactly once, in
//! order. Capture and replay: a workload captured on one append server
//! replays byte for byte on a fresh one, and [`check_history`] accepts
//! the capture and refuses it once an event is altered.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use lipstick_core::GraphTracker;
use lipstick_proql::Session;
use lipstick_serve::qlog::{check_history, read_log, QueryEvent, QueryLog, QueryLogConfig};
use lipstick_serve::{Client, Reply, Server, ServerConfig};
use lipstick_workflowgen::dealers::{self, DealersParams};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn scratch_path(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "lipstick-qlog-prop-{}-{tag:016x}.jsonl",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    for generation in 0..512u64 {
        let mut archived = path.as_os_str().to_os_string();
        archived.push(format!(".{generation}"));
        let _ = std::fs::remove_file(PathBuf::from(archived));
    }
}

proptest! {
    #[test]
    fn rotation_loses_and_duplicates_nothing(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events = 20 + rng.below(60);
        // Tiny rotation thresholds force rotation every few appends
        // (an event line is ~150 bytes); `keep` is sized so nothing is
        // pruned during the run — pruning *is* lossy, by design.
        let max_bytes = 128 + rng.below(1024) as u64;
        let path = scratch_path(seed);
        cleanup(&path);
        let log = QueryLog::open(QueryLogConfig {
            path: path.clone(),
            max_bytes,
            keep: 512,
        });
        for i in 0..events {
            log.append(QueryEvent {
                seq: u64::MAX, // overwritten by the log
                ts_us: rng.next_u64() % 1_000_000,
                client: rng.next_u64() % 8,
                stmt: format!("MATCH base-nodes LIMIT {i}"),
                key: format!("MATCH base-nodes LIMIT {i}"),
                outcome: if rng.below(10) == 0 { "err" } else { "ok" }.into(),
                cache_hit: rng.below(2) == 0,
                time_us: rng.next_u64() % 10_000,
                reads: rng.next_u64() % 100,
                epoch: rng.next_u64() % 4,
                result_fnv: rng.next_u64(),
            });
        }
        let rotations = log.generation();
        prop_assert!(rotations > 0, "thresholds must force at least one rotation");
        drop(log);

        let recovered = read_log(&path);
        cleanup(&path);
        prop_assert_eq!(
            recovered.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..events as u64).collect::<Vec<_>>(),
            "every appended event must read back exactly once, in order \
             ({} rotation(s), max_bytes {})",
            rotations,
            max_bytes
        );
        // Spot-check a payload survived the file round trip intact.
        let probe = &recovered[recovered.len() / 2];
        prop_assert_eq!(&probe.stmt, &format!("MATCH base-nodes LIMIT {}", probe.seq));
    }
}

/// Reopening an existing log appends after the previous contents
/// rather than truncating them.
#[test]
fn reopen_appends_instead_of_truncating() {
    let path = scratch_path(0xab5e_0000_0001);
    cleanup(&path);
    let config = QueryLogConfig {
        path: path.clone(),
        max_bytes: u64::MAX,
        keep: 4,
    };
    let sample = |seq| QueryEvent {
        seq,
        ts_us: 0,
        client: 0,
        stmt: "STATS".into(),
        key: "STATS".into(),
        outcome: "ok".into(),
        cache_hit: false,
        time_us: 1,
        reads: 0,
        epoch: 0,
        result_fnv: 1,
    };
    let first = QueryLog::open(config.clone());
    first.append(sample(0));
    drop(first);
    let second = QueryLog::open(config);
    second.append(sample(0));
    drop(second);
    let recovered = read_log(&path);
    cleanup(&path);
    // Sequence numbers restart per process (they are per-log-instance),
    // but both events must be present.
    assert_eq!(recovered.len(), 2, "reopen must not truncate");
}

/// The captured workload: repeats for cache hits, a parse error, a
/// failed and a committed write, reads on both sides of the commit, and
/// two measurement outputs.
const WORKLOAD: &[&str] = &[
    "MATCH base-nodes",
    "MATCH base-nodes", // repeat: cache hit
    "match base-nodes", // same key after normalization: cache hit
    "COUNT(*) MATCH base-nodes",
    "MATCH m-nodes WHERE execution < 2",
    "ANCESTORS OF #5 DEPTH 3",
    "STATS",                    // measurement: not compared
    "TOTALLY NOT PROQL",        // parse errors are events too
    "DELETE #999999 PROPAGATE", // a failed write changes nothing
    "DELETE #2 PROPAGATE",      // tail-committed write: epoch bump, cache flush
    "MATCH base-nodes",         // post-write miss, then...
    "MATCH base-nodes",         // ...hit at the new epoch
    "COUNT(*) MATCH base-nodes",
    "EXPLAIN MATCH base-nodes UNION MATCH m-nodes",
    "EXPLAIN ANALYZE MATCH base-nodes", // measurement: not compared
];

struct Capture {
    base: PathBuf,
    events: Vec<QueryEvent>,
}

/// A sealed dealers log, and `WORKLOAD` captured over one connection on
/// an append server opened on a copy of it. Shared by every test below.
fn captured() -> &'static Capture {
    static CAPTURE: OnceLock<Capture> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("lipstick-serve-qlog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.lpstk");
        let mut tracker = GraphTracker::new();
        let params = DealersParams {
            num_cars: 24,
            num_exec: 2,
            seed: 7,
        };
        dealers::run_declining(&params, &mut tracker).unwrap();
        lipstick_storage::write_graph_v2(&tracker.finish(), &base).unwrap();

        let qlog = dir.join("capture.jsonl");
        cleanup(&qlog);
        let log = fresh_copy(&base, "capture.lpstk");
        let server = Server::new(
            Session::open_append(&log).unwrap(),
            ServerConfig {
                workers: 2,
                cache_capacity: 64,
                query_log: Some(QueryLogConfig::new(&qlog)),
                trace_sample_every: 4,
                ..ServerConfig::default()
            },
        )
        .serve("127.0.0.1:0")
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for stmt in WORKLOAD {
            client.query(stmt).unwrap();
        }
        drop(client);
        assert_eq!(server.query_log_events(), WORKLOAD.len() as u64);
        assert!(
            server.slow_log_len() > 0,
            "1-in-4 trace sampling must retain traces even for fast reads"
        );
        server.shutdown();
        assert!(tail_of(&log).exists(), "the DELETE committed to the tail");

        let events = read_log(&qlog);
        cleanup(&qlog);
        assert_eq!(events.len(), WORKLOAD.len(), "the capture parses back");
        let hits = events.iter().filter(|e| e.cache_hit).count();
        assert!(hits >= 3, "workload repeats must hit the cache");
        Capture { base, events }
    })
}

fn tail_of(log: &Path) -> PathBuf {
    let mut tail = log.as_os_str().to_os_string();
    tail.push(".tail");
    PathBuf::from(tail)
}

/// A copy of the sealed base under `name`, with no tail beside it.
fn fresh_copy(base: &Path, name: &str) -> PathBuf {
    let copy = base.with_file_name(name);
    std::fs::copy(base, &copy).unwrap();
    let _ = std::fs::remove_file(tail_of(&copy));
    copy
}

/// An append session on a fresh copy of the capture's starting base —
/// the backend the capture ran on.
fn reference(name: &str) -> Session {
    let capture = captured();
    Session::open_append(fresh_copy(&capture.base, name)).unwrap()
}

/// The capture's event running `stmt`, the `nth` time it ran (0-based).
fn event_index(events: &[QueryEvent], stmt: &str, nth: usize) -> usize {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.stmt == stmt)
        .nth(nth)
        .map(|(i, _)| i)
        .unwrap()
}

/// Replays the capture in capture order over one connection to a fresh
/// append server on the same sealed base: the capture's tail is not
/// there, so the DELETE commits again through the replay's own tail.
/// Every comparable event's fingerprint and cache hit match, and the
/// capture passes the serial history check.
#[test]
fn a_capture_replays_byte_for_byte_and_checks_as_a_serial_history() {
    let capture = captured();
    let log = fresh_copy(&capture.base, "replay.lpstk");
    let server = Server::new(
        Session::open_append(&log).unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut events = capture.events.clone();
    events.sort_by_key(|e| e.seq);
    for event in &events {
        let (payload, cache_hit) = match client.query(&event.stmt).unwrap() {
            Reply::Ok {
                body, cache_hit, ..
            } => (body, cache_hit),
            Reply::Err(message) => (message, false),
            busy @ Reply::Busy { .. } => panic!("{}: {busy:?}", event.stmt),
        };
        if event.key.starts_with("STATS") || event.key.starts_with("EXPLAIN ANALYZE") {
            continue;
        }
        assert_eq!(
            (QueryEvent::fingerprint(&payload), cache_hit),
            (event.result_fnv, event.cache_hit),
            "seq {} {:?}",
            event.seq,
            event.stmt
        );
    }
    drop(client);
    server.shutdown();
    assert!(
        tail_of(&log).exists(),
        "the DELETE committed to the replay's tail"
    );

    let checked = check_history(&capture.events, &mut reference("history.lpstk"))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(checked, WORKLOAD.len() - 2, "all but the two measurements");
}

#[test]
fn check_history_refuses_a_flipped_result_fingerprint() {
    let mut events = captured().events.clone();
    let i = event_index(&events, "MATCH base-nodes", 3);
    events[i].result_fnv ^= 1;
    let err = check_history(&events, &mut reference("flipped.lpstk")).unwrap_err();
    assert_eq!((err.seq, err.epoch), (events[i].seq, 1), "{err}");
    assert!(
        err.to_string()
            .contains(&format!("captured fnv {}", events[i].result_fnv)),
        "{err}"
    );
}

#[test]
fn check_history_refuses_a_write_epoch_gap() {
    let mut events = captured().events.clone();
    let i = event_index(&events, "DELETE #2 PROPAGATE", 0);
    assert_eq!(events[i].epoch, 1);
    events[i].epoch = 2;
    let err = check_history(&events, &mut reference("gap.lpstk")).unwrap_err();
    assert_eq!(err.seq, events[i].seq, "{err}");
}

#[test]
fn check_history_refuses_a_read_stamped_one_epoch_late() {
    let mut events = captured().events.clone();
    let i = event_index(&events, "COUNT(*) MATCH base-nodes", 0);
    assert_eq!(events[i].epoch, 0);
    events[i].epoch = 1;
    let err = check_history(&events, &mut reference("late.lpstk")).unwrap_err();
    assert_eq!(err.seq, events[i].seq, "{err}");
}

/// A read cancelled at its deadline answered with a timing outcome, not
/// data: it is skipped, not compared.
#[test]
fn check_history_skips_a_read_cancelled_at_its_deadline() {
    let mut events = captured().events.clone();
    let i = event_index(&events, "ANCESTORS OF #5 DEPTH 3", 0);
    events[i].outcome = "err".into();
    events[i].result_fnv =
        QueryEvent::fingerprint(&lipstick_proql::ProqlError::DeadlineExceeded.to_string());
    let checked =
        check_history(&events, &mut reference("deadline.lpstk")).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(checked, WORKLOAD.len() - 3);
}
