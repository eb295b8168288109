//! Query-log rotation properties: whatever sequence of events is
//! appended and however often the file rotates underneath them, reading
//! the log back must yield every event exactly once, in order.

use std::path::PathBuf;

use lipstick_serve::qlog::{read_log, QueryEvent, QueryLog, QueryLogConfig};
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
