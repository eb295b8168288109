//! End-to-end tests for lipstick-serve: concurrent reads over both
//! protocols, plan-keyed caching, epoch invalidation under interleaved
//! writes, paged/resident agreement, and the paged server as a
//! read-only snapshot.

use std::collections::HashMap;
use std::sync::Arc;

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::Session;
use lipstick_serve::client::{http_get_explain, http_post_query};
use lipstick_serve::{Client, Reply, Server, ServerConfig};
use lipstick_storage::write_graph_v2;
use lipstick_workflowgen::dealers::{self, DealersParams};

fn dealers_graph() -> ProvGraph {
    let params = DealersParams {
        num_cars: 24,
        num_exec: 2,
        seed: 7,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker).expect("dealers run");
    tracker.finish()
}

fn temp_log(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lipstick-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_graph_v2(&dealers_graph(), &path).unwrap();
    // A tail left by an earlier run binds to this same fresh base and
    // would replay its deletions into this one.
    let _ = std::fs::remove_file(dir.join(format!("{name}.tail")));
    path
}

/// Drop the backend-dependent "(visited N)" cost figure so paged and
/// resident renderings compare on substance.
fn strip_visited(s: &str) -> String {
    match (s.find("(visited "), s.find("):")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &s[..a], &s[b + 1..]),
        _ => s.to_string(),
    }
}

fn serve_paged(name: &str, workers: usize) -> lipstick_serve::ServerHandle {
    let session = Session::open(temp_log(name)).unwrap();
    assert!(session.is_paged());
    Server::new(
        session,
        ServerConfig {
            workers,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap()
}

#[test]
fn line_protocol_answers_statements_and_reports_cache_hits() {
    let handle = serve_paged("line.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let first = client.query("MATCH base-nodes").unwrap();
    assert!(first.is_ok(), "got {first:?}");
    assert!(!first.cache_hit());
    assert!(first.body().contains("nodes"));

    // Different spelling, same parsed statement: a cache hit with an
    // identical payload.
    let second = client.query("  match BASE-NODES ;").unwrap();
    assert!(second.cache_hit(), "normalized statement must hit");
    assert_eq!(first.body(), second.body());

    // Errors are framed, not connection-fatal.
    let err = client.query("MATCH q-nodes").unwrap();
    assert!(matches!(err, Reply::Err(_)));
    let after = client.query("STATS").unwrap();
    assert!(after.is_ok(), "connection survives an error reply");

    drop(client);
    handle.shutdown();
}

#[test]
fn concurrent_clients_agree_with_a_resident_session() {
    let path = temp_log("agree.lpstk");
    let graph = dealers_graph();
    let roots = graph.top_fanout_nodes(3);
    let handle = serve_paged("agree.lpstk", 4);

    // Exact expected payloads come from a paged session (the server's
    // backend); a resident session must agree on everything except the
    // backend-dependent visited-cost figure.
    let paged = Session::open(&path).unwrap();
    let mut resident = Session::load(&path).unwrap();
    let mut stmts = vec![
        "MATCH base-nodes".to_string(),
        "MATCH m-nodes WHERE execution < 1".to_string(),
        "MATCH nodes WHERE execution >= 1".to_string(),
    ];
    for r in &roots {
        stmts.push(format!("WHY #{}", r.0));
        stmts.push(format!("DESCENDANTS OF #{} DEPTH 2", r.0));
        stmts.push(format!("EVAL #{} IN counting", r.0));
        stmts.push(format!("DEPENDS(#{}, #{})", roots[0].0, r.0));
    }
    let expected: HashMap<String, String> = stmts
        .iter()
        .map(|s| (s.clone(), paged.run_read(s).unwrap().to_string()))
        .collect();
    for stmt in &stmts {
        assert_eq!(
            strip_visited(&expected[stmt]),
            strip_visited(&resident.run_one(stmt).unwrap().to_string()),
            "paged and resident answers must agree for {stmt}"
        );
    }

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let stmts = &stmts;
            let expected = &expected;
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    for stmt in stmts {
                        let reply = client.query(stmt).unwrap();
                        assert!(reply.is_ok(), "{stmt}: {reply:?}");
                        assert_eq!(
                            reply.body(),
                            expected[stmt],
                            "paged server answer diverged for {stmt}"
                        );
                    }
                }
            });
        }
    });
    let (hits, misses) = handle.cache_stats();
    assert!(hits > 0, "repeated statements must hit the cache");
    assert!(misses >= stmts.len() as u64);
    handle.shutdown();
}

#[test]
fn epoch_bump_invalidates_cached_results() {
    let handle = serve_append("epoch.lpstk", 2, 0);
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client.query("MATCH base-nodes").unwrap();
    let hit = client.query("MATCH base-nodes").unwrap();
    assert!(hit.cache_hit());
    assert_eq!(before.epoch(), Some(0));

    // Find a base token to delete: WHY on any base node, or just
    // delete by id from the known graph shape.
    let graph = dealers_graph();
    let victim = graph
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .unwrap();
    let del = client
        .query(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    assert!(del.is_ok(), "{del:?}");
    assert_eq!(del.epoch(), Some(1), "mutation bumps the epoch");

    let after = client.query("MATCH base-nodes").unwrap();
    assert!(
        !after.cache_hit(),
        "epoch bump must invalidate the cached result"
    );
    assert_eq!(after.epoch(), Some(1));
    assert_ne!(
        before.body(),
        after.body(),
        "the deleted base node must be gone from the new answer"
    );

    // The new answer caches under the new epoch.
    let warm = client.query("MATCH base-nodes").unwrap();
    assert!(warm.cache_hit());
    assert_eq!(warm.body(), after.body());

    drop(client);
    handle.shutdown();
}

/// N reader threads hammer one statement while a writer interleaves a
/// `DELETE PROPAGATE`. Every reply must carry the answer that is
/// correct *for the epoch it reports* — a cached result served across
/// the epoch bump would pair epoch 1 with the pre-delete answer (or
/// report epoch 0 after observing the post-delete answer).
#[test]
fn cached_results_are_never_served_across_an_epoch_bump() {
    let handle = serve_append("race.lpstk", 6, 0);

    // Mirror the server's lifecycle exactly: an append session on a
    // copy of the log answers the pre-delete reads, takes the DELETE,
    // and answers the post-delete reads.
    let mut mirror = Session::open_append(temp_log("race-mirror.lpstk")).unwrap();
    let stmt = "MATCH base-nodes";
    let before = mirror.run_one(stmt).unwrap().to_string();
    let graph = dealers_graph();
    let victim = graph
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .unwrap();
    mirror
        .run_one(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    let after = mirror.run_one(stmt).unwrap().to_string();
    assert_ne!(before, after);

    std::thread::scope(|scope| {
        for _ in 0..5 {
            let addr = handle.addr();
            let (before, after) = (&before, &after);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..50 {
                    let reply = client.query(stmt).unwrap();
                    let Reply::Ok { epoch, body, .. } = reply else {
                        panic!("read failed: {reply:?}");
                    };
                    match epoch {
                        0 => assert_eq!(&body, before, "epoch 0 must see the pre-delete answer"),
                        1 => assert_eq!(&body, after, "epoch 1 must see the post-delete answer"),
                        other => panic!("unexpected epoch {other}"),
                    }
                }
            });
        }
        let addr = handle.addr();
        scope.spawn(move || {
            let mut writer = Client::connect(addr).unwrap();
            // Let readers warm the cache first.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let del = writer
                .query(&format!("DELETE #{} PROPAGATE", victim.0))
                .unwrap();
            assert!(del.is_ok(), "{del:?}");
        });
    });
    assert_eq!(handle.epoch(), 1);
    handle.shutdown();
}

/// Shaped (grouped/ordered/limited) results through the cache, under
/// a mutating writer: every reply must carry the grouped table that is
/// correct *for the epoch it reports*. This is the serve-layer lockdown
/// for the new result shaping — a stale cached table served across the
/// epoch bump would pair the post-delete epoch with pre-delete counts.
#[test]
fn shaped_results_match_their_reported_epoch_under_writes() {
    let handle = serve_append("shaped-race.lpstk", 6, 0);

    let stmts = [
        "MATCH nodes GROUP BY kind ORDER BY count DESC",
        // Every group is within the limit, so the deleted base tuple
        // always shows in the `(none)` group's count.
        "MATCH nodes GROUP BY module ORDER BY count DESC LIMIT 16",
        "COUNT(*) MATCH base-nodes",
    ];

    // Mirror the server's lifecycle: an append session on a copy of the
    // log, answering before and after the DELETE.
    let mut mirror = Session::open_append(temp_log("shaped-race-mirror.lpstk")).unwrap();
    let graph = dealers_graph();
    let victim = graph
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .unwrap();
    let before: HashMap<&str, String> = stmts
        .iter()
        .map(|s| (*s, mirror.run_one(s).unwrap().to_string()))
        .collect();
    mirror
        .run_one(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    let after: HashMap<&str, String> = stmts
        .iter()
        .map(|s| (*s, mirror.run_one(s).unwrap().to_string()))
        .collect();
    for s in &stmts {
        assert_ne!(before[s], after[s], "deletion must change {s}");
    }

    std::thread::scope(|scope| {
        for _ in 0..5 {
            let addr = handle.addr();
            let (stmts, before, after) = (&stmts, &before, &after);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..30 {
                    for stmt in stmts {
                        let reply = client.query(stmt).unwrap();
                        let Reply::Ok { epoch, body, .. } = reply else {
                            panic!("shaped read failed: {reply:?}");
                        };
                        match epoch {
                            0 => assert_eq!(&body, &before[stmt], "epoch 0: {stmt}"),
                            1 => assert_eq!(&body, &after[stmt], "epoch 1: {stmt}"),
                            other => panic!("unexpected epoch {other}"),
                        }
                    }
                }
            });
        }
        let addr = handle.addr();
        scope.spawn(move || {
            let mut writer = Client::connect(addr).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(15));
            let del = writer
                .query(&format!("DELETE #{} PROPAGATE", victim.0))
                .unwrap();
            assert!(del.is_ok(), "{del:?}");
        });
    });
    let (hits, _) = handle.cache_stats();
    assert!(hits > 0, "shaped results must be cacheable");
    assert_eq!(handle.epoch(), 1);
    handle.shutdown();
}

/// The cache key is the canonical statement rendering: spellings that
/// differ beyond case/whitespace — an omitted optional keyword, ASC
/// spelled out — share one entry.
#[test]
fn canonical_cache_key_normalizes_equivalent_spellings() {
    let handle = serve_paged("canon.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let graph = dealers_graph();
    let root = graph.top_fanout_nodes(1)[0];
    let first = client
        .query(&format!("ANCESTORS OF #{} DEPTH 2", root.0))
        .unwrap();
    assert!(first.is_ok(), "{first:?}");
    assert!(!first.cache_hit());
    // `OF` is optional; the parsed statement is the same.
    let second = client
        .query(&format!("ancestors #{} depth 2", root.0))
        .unwrap();
    assert!(second.cache_hit(), "optional-keyword spelling must hit");
    assert_eq!(first.body(), second.body());

    let first = client
        .query("MATCH m-nodes ORDER BY execution DESC LIMIT 4")
        .unwrap();
    assert!(!first.cache_hit());
    let second = client
        .query("match m-nodes order by execution DESC limit 4;")
        .unwrap();
    assert!(second.cache_hit());
    assert_eq!(first.body(), second.body());

    drop(client);
    handle.shutdown();
}

#[test]
fn http_shim_serves_query_and_explain() {
    let handle = serve_paged("http.lpstk", 2);
    let addr = handle.addr();

    let (status, body) = http_post_query(addr, "MATCH base-nodes").unwrap();
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""ok":true"#), "{body}");
    assert!(body.contains(r#""cache_hit":false"#), "{body}");
    assert!(body.contains(r#""type":"nodes""#), "{body}");

    // Same statement over HTTP shares the line protocol's cache.
    let (_, body2) = http_post_query(addr, "match base-nodes;").unwrap();
    assert!(body2.contains(r#""cache_hit":true"#), "{body2}");

    let (status, body) = http_get_explain(addr, "MATCH+base-nodes").unwrap();
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""plan":"#), "{body}");
    assert!(
        body.contains("postings scan"),
        "paged plan expected: {body}"
    );

    let (status, body) = http_post_query(addr, "MATCH q-nodes").unwrap();
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains(r#""ok":false"#), "{body}");

    let (status, _) = lipstick_serve::client::http_get_explain(addr, "").unwrap();
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    handle.shutdown();
}

/// Send `head` then 4 MiB with no newline on a fresh connection (from a
/// second thread, since the server stops reading and closes), and
/// return the first line the server answers within five seconds.
fn flood_without_newline(addr: std::net::SocketAddr, head: &[u8]) -> std::io::Result<String> {
    use std::io::{BufRead, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut sender = stream.try_clone()?;
    let head = head.to_vec();
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 << 10];
        let _ = sender.write_all(&head);
        for _ in 0..64 {
            if sender.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reply = String::new();
    let read = std::io::BufReader::new(stream).read_line(&mut reply);
    let _ = flood.join();
    read.map(|_| reply)
}

/// A request line may not grow without bound: past the limit the
/// server answers an error naming it and closes, for a line-protocol
/// statement and for an HTTP header line alike, and keeps serving
/// other connections.
#[test]
fn an_over_long_request_line_is_refused_and_closed() {
    let handle = serve_paged("long_line.lpstk", 2);
    let addr = handle.addr();

    let reply = flood_without_newline(addr, b"MATCH ").expect("a reply, not a timeout");
    assert!(
        reply.starts_with("ERR ") && reply.contains("MAX_REQUEST_LINE"),
        "{reply:?}"
    );
    let reply = flood_without_newline(addr, b"POST /query HTTP/1.1\r\nX-Pad: ")
        .expect("a reply, not a timeout");
    assert!(reply.starts_with("HTTP/1.1 431 "), "{reply:?}");

    let mut client = Client::connect(addr).unwrap();
    assert!(client.query("MATCH base-nodes").unwrap().is_ok());
    handle.shutdown();
}

/// A paged server serves a read-only snapshot of its log: `DELETE`
/// and `ZOOM` are refused with the typed snapshot error and change
/// nothing — the session stays paged, decodes no record for them, and
/// answers as before.
#[test]
fn paged_server_is_a_read_only_snapshot() {
    let handle = serve_paged("snapshot.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    for stmt in ["MATCH base-nodes", "STATS", "EXPLAIN MATCH m-nodes"] {
        assert!(client.query(stmt).unwrap().is_ok());
    }
    // STATS on a paged backend names the paged log.
    let stats = client.query("STATS").unwrap();
    assert!(stats.body().contains("paged log"), "{stats:?}");
    let answer = client.query("MATCH base-nodes").unwrap();

    let graph = dealers_graph();
    let module = graph.invocations()[0].module.clone();
    for stmt in [
        format!("ZOOM OUT TO {module}"),
        "DELETE #0 PROPAGATE".into(),
    ] {
        let Reply::Err(message) = client.query(&stmt).unwrap() else {
            panic!("{stmt} must be refused");
        };
        assert!(message.contains("read-only snapshot"), "{message}");
        assert!(
            message.contains("Session::load") && message.contains("Session::open_append"),
            "{message}"
        );
    }
    // STATS' first line: record and visible counts, records decoded.
    let first_line = |body: &str| body.lines().next().unwrap_or_default().to_string();
    let again = client.query("STATS").unwrap();
    assert_eq!(first_line(again.body()), first_line(stats.body()));
    let after = client.query("MATCH base-nodes").unwrap();
    assert!(after.cache_hit(), "nothing changed; the cache stays warm");
    assert_eq!(after.body(), answer.body());

    drop(client);
    handle.shutdown();
}

#[test]
fn rejected_mutation_on_a_paged_server_does_not_bump_the_epoch() {
    let handle = serve_paged("failmut.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client.query("MATCH base-nodes").unwrap();
    assert_eq!(before.epoch(), Some(0));

    // Refused before a record is read, whether or not the change would
    // have succeeded on a session that takes changes.
    for stmt in ["ZOOM OUT TO NoSuchModule", "DELETE #0 PROPAGATE", "ZOOM IN"] {
        let err = client.query(stmt).unwrap();
        assert!(matches!(err, Reply::Err(_)), "{stmt}: {err:?}");
        let warm = client.query("MATCH base-nodes").unwrap();
        assert!(
            warm.cache_hit(),
            "{stmt} changed nothing; the cache stays warm"
        );
        assert_eq!(warm.epoch(), Some(0), "{stmt}");
        assert_eq!(warm.body(), before.body());
    }
    assert_eq!(handle.epoch(), 0);

    drop(client);
    handle.shutdown();
}

/// The reach index now survives mutations (repaired in place), so a
/// served session keeps answering `ANCESTORS`/`DESCENDANTS` from the
/// closure across `DELETE PROPAGATE` — while the epoch bump still
/// invalidates every result cached against the pre-mutation graph.
#[test]
fn reach_index_survives_mutations_behind_the_cache() {
    // Pick a victim and a query root that survives the victim's
    // deletion cone (with ancestors left to report), using a local
    // oracle copy of the graph the server is serving.
    let g = dealers_graph();
    let victim = lipstick_core::NodeId(0);
    let (g2, _) = lipstick_core::query::propagate_deletion(&g, victim).unwrap();
    let root = g2
        .iter_visible()
        .find(|(_, n)| n.preds().iter().any(|p| g2.node(*p).is_visible()))
        .map(|(id, _)| id)
        .expect("a surviving node with visible ancestors");
    let ancestors_stmt = format!("ANCESTORS OF #{}", root.0);
    let encoded_stmt = format!("ANCESTORS+OF+%23{}", root.0);

    let handle = serve_append("index-epoch.lpstk", 2, 0);
    let mut client = Client::connect(handle.addr()).unwrap();

    let built = client.query("BUILD INDEX").unwrap();
    assert!(built.is_ok(), "got {built:?}");
    let epoch_after_build = handle.epoch();

    let (_, explain) = http_get_explain(handle.addr(), &encoded_stmt).unwrap();
    assert!(
        explain.contains("reach-index lookup") && explain.contains("ancestor closure"),
        "indexed upward plan expected, got: {explain}"
    );

    let before = client.query(&ancestors_stmt).unwrap();
    assert!(before.is_ok(), "got {before:?}");
    let cached = client.query(&ancestors_stmt).unwrap();
    assert!(cached.cache_hit(), "second read must come from cache");

    // Mutate: epoch bumps, cache entries die, but the index is
    // repaired rather than dropped.
    let del = client
        .query(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    assert!(del.is_ok(), "got {del:?}");
    assert_eq!(handle.epoch(), epoch_after_build + 1);

    let (_, explain) = http_get_explain(handle.addr(), &encoded_stmt).unwrap();
    assert!(
        explain.contains("reach-index lookup"),
        "index must survive the mutation, got: {explain}"
    );
    assert!(!explain.contains("bfs"), "got: {explain}");

    // The post-mutation answer is freshly computed (no stale hit) and
    // matches a resident oracle replaying the same statements.
    let after = client.query(&ancestors_stmt).unwrap();
    assert!(after.is_ok() && !after.cache_hit());
    let mut oracle = Session::new(g);
    oracle.run_one("BUILD INDEX").unwrap();
    oracle
        .run_one(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    let expect = oracle.run_one(&ancestors_stmt).unwrap().to_string();
    assert_eq!(strip_visited(after.body()), strip_visited(&expect));

    drop(client);
    handle.shutdown();
}

/// Six clients hammer queries and scrape `GET /metrics` while a writer
/// mutates mid-run: every scrape must be valid Prometheus text, and the
/// serve counters must read monotonically within each scraping thread.
#[test]
fn metrics_endpoint_stays_valid_and_monotonic_under_concurrent_load() {
    use lipstick_core::obs::{parse_plain_samples, validate_prometheus_text};

    // Each scraper pins one persistent line connection (6) and the
    // writer another (7); every `/metrics` scrape is an extra one-shot
    // connection that needs a *free* worker, so the pool must be larger
    // than the persistent population or the scrapes deadlock the test.
    let handle = serve_append("metrics.lpstk", 14, 0);
    let addr = handle.addr();
    let graph = dealers_graph();
    let victim = graph
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .unwrap();

    let monotone_keys = [
        "lipstick_serve_queries_total",
        "lipstick_serve_connections_total",
        "lipstick_serve_mutations_total",
        "lipstick_proql_statements_total",
    ];
    std::thread::scope(|scope| {
        for t in 0..6 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last: HashMap<String, f64> = HashMap::new();
                for i in 0..20 {
                    let stmt = if i % 2 == 0 {
                        "MATCH base-nodes"
                    } else {
                        "MATCH m-nodes"
                    };
                    assert!(client.query(stmt).unwrap().is_ok());
                    let (status, text) = lipstick_serve::client::http_get(addr, "/metrics")
                        .unwrap_or_else(|e| panic!("thread {t} scrape {i}: {e}"));
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    validate_prometheus_text(&text)
                        .unwrap_or_else(|e| panic!("invalid exposition (thread {t}): {e}\n{text}"));
                    let samples = parse_plain_samples(&text);
                    for key in monotone_keys {
                        let now = *samples
                            .get(key)
                            .unwrap_or_else(|| panic!("{key} missing from scrape"));
                        if let Some(prev) = last.get(key) {
                            assert!(now >= *prev, "{key} went backwards: {prev} -> {now}");
                        }
                        last.insert(key.to_string(), now);
                    }
                }
            });
        }
        scope.spawn(move || {
            let mut writer = Client::connect(addr).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            let del = writer
                .query(&format!("DELETE #{} PROPAGATE", victim.0))
                .unwrap();
            assert!(del.is_ok(), "{del:?}");
        });
    });
    // The DELETE published under the write guard: the writer's wait for
    // it is observed beside the hold.
    let (_, text) = lipstick_serve::client::http_get(addr, "/metrics").unwrap();
    let samples = parse_plain_samples(&text);
    for key in [
        "lipstick_serve_write_lock_wait_us_count",
        "lipstick_serve_write_lock_hold_us_count",
    ] {
        assert!(samples.get(key).is_some_and(|&n| n >= 1.0), "{key}\n{text}");
    }
    handle.shutdown();
}

/// COMPACT's phases are on `GET /metrics`: once an auto-COMPACT has
/// folded the tail away, the splice, write, reopen and install
/// histograms have each observed it, and the exposition stays valid.
#[test]
fn auto_compact_phases_are_exported_on_metrics() {
    use lipstick_core::obs::{parse_plain_samples, validate_prometheus_text};

    const PHASES: [&str; 4] = [
        "lipstick_storage_compact_splice_us_count",
        "lipstick_storage_compact_write_us_count",
        "lipstick_storage_compact_reopen_us_count",
        "lipstick_storage_compact_install_us_count",
    ];
    let name = "compact-phases.lpstk";
    let handle = serve_append(name, 2, 2);
    let tail = std::env::temp_dir()
        .join("lipstick-serve-tests")
        .join(format!("{name}.tail"));
    let scrape = || {
        let (status, text) = lipstick_serve::client::http_get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        validate_prometheus_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        text
    };
    // The registry is process-wide: other tests may compact meanwhile,
    // which only adds to the counts.
    let before = parse_plain_samples(&scrape());
    let mut client = Client::connect(handle.addr()).unwrap();
    for victim in base_victims(2) {
        let reply = client
            .query(&format!("DELETE #{} PROPAGATE", victim.0))
            .unwrap();
        assert!(reply.is_ok(), "{reply:?}");
    }
    // The reply goes out before the writer compacts: wait for the tail
    // to fold away and the install after its unlink to be observed.
    let grew = |after: &std::collections::BTreeMap<String, f64>, key: &str| {
        let was = before.get(key).copied().unwrap_or(0.0);
        after.get(key).is_some_and(|&now| now >= 1.0 && now > was)
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let text = scrape();
        let samples = parse_plain_samples(&text);
        if !tail.exists() && PHASES.iter().all(|key| grew(&samples, key)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no auto-COMPACT\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    handle.shutdown();
}

/// The OK header carries `time_us`/`reads` trailers; slow reads land in
/// the ring with their full trace, servable as JSON via `GET /slow`.
#[test]
fn timing_trailers_and_slow_query_log() {
    let session = Session::open(temp_log("slowlog.lpstk")).unwrap();
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            slow_threshold_us: 0, // record every traced read
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A token test reads each base tuple's record.
    let miss = client
        .query("MATCH base-nodes WHERE token LIKE '%'")
        .unwrap();
    assert!(miss.is_ok(), "{miss:?}");
    assert!(
        miss.reads().unwrap() > 0,
        "an uncached paged read must charge record decodes: {miss:?}"
    );
    let hit = client
        .query("MATCH base-nodes WHERE token LIKE '%'")
        .unwrap();
    assert!(hit.cache_hit());
    assert_eq!(hit.reads(), Some(0), "a cache hit decodes nothing");

    // EXPLAIN ANALYZE is a measurement: it never comes from the cache.
    let first = client.query("EXPLAIN ANALYZE MATCH base-nodes").unwrap();
    assert!(first.body().contains("actuals:"), "{first:?}");
    let second = client.query("EXPLAIN ANALYZE MATCH base-nodes").unwrap();
    assert!(
        !second.cache_hit(),
        "measurements must not be replayed from the cache"
    );

    assert!(handle.slow_log_len() > 0, "threshold 0 records every read");
    let (status, body) = lipstick_serve::client::http_get(handle.addr(), "/slow?n=5").unwrap();
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""ok":true"#), "{body}");
    assert!(
        body.contains(r#""stmt":"MATCH base-nodes WHERE token LIKE '%'""#),
        "slow entries carry the canonical statement: {body}"
    );
    assert!(
        body.contains(r#""trace":["#) && body.contains(r#""label":"#),
        "slow entries carry the full span trace: {body}"
    );

    drop(client);
    handle.shutdown();
}

/// `STATS` bypasses the cache and reports the server's own counters
/// alongside the session's graph statistics.
#[test]
fn stats_appends_server_lines_and_never_caches() {
    let handle = serve_paged("stats-lines.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let first = client.query("STATS").unwrap();
    assert!(first.is_ok(), "{first:?}");
    assert!(first.body().contains("paged log"), "{first:?}");
    assert!(first.body().contains("server: epoch=0"), "{first:?}");
    assert!(first.body().contains("server: cache hits="), "{first:?}");

    let again = client.query("STATS").unwrap();
    assert!(!again.cache_hit(), "STATS must report live counters");
    assert!(
        again.body().contains("server: epoch=0 queries=2"),
        "the second STATS sees its own predecessor counted: {again:?}"
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn read_only_statements_do_not_bump_the_epoch() {
    let handle = serve_paged("readonly.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    for stmt in [
        "MATCH base-nodes",
        "STATS",
        "EXPLAIN DELETE #0 PROPAGATE",
        "MATCH base-nodes UNION MATCH m-nodes",
    ] {
        let reply = client.query(stmt).unwrap();
        assert!(reply.is_ok(), "{stmt}: {reply:?}");
        assert_eq!(reply.epoch(), Some(0), "{stmt}");
    }
    assert_eq!(handle.epoch(), 0);
    drop(client);
    handle.shutdown();
}

/// Acceptance: the heap-byte gauges on `GET /metrics` and the memory
/// breakdown inside `STATS` are two views of the same accounting — the
/// sums must agree within 10%.
///
/// The registry is process-global and other tests' servers refresh the
/// same gauges concurrently, so the comparison retries a few times to
/// catch a window where this server was the last writer.
#[test]
fn metrics_heap_gauges_agree_with_stats_memory_breakdown() {
    use lipstick_core::obs::parse_plain_samples;

    const HEAP_GAUGES: [&str; 5] = [
        "lipstick_core_graph_heap_bytes",
        "lipstick_core_reach_heap_bytes",
        "lipstick_storage_paged_log_heap_bytes",
        "lipstick_storage_fault_cache_heap_bytes",
        "lipstick_serve_cache_heap_bytes",
    ];

    let handle = serve_paged("memgauges.lpstk", 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Fault in records and populate the result cache so the paged and
    // serve_cache components are non-trivial.
    for stmt in [
        "MATCH base-nodes",
        "MATCH m-nodes WHERE execution < 1",
        "COUNT(*) MATCH base-nodes",
    ] {
        assert!(client.query(stmt).unwrap().is_ok(), "{stmt}");
    }

    let mut last = (0.0, 0.0);
    let mut agreed = false;
    for _ in 0..5 {
        // STATS: sum the per-component lines (dotted names); the
        // `memory total=` line is the session side only, so re-derive
        // the full sum from the components (which include serve_cache).
        let stats = client.query("STATS").unwrap();
        let stats_sum: f64 = stats
            .body()
            .lines()
            .filter_map(|line| {
                let rest = line.trim().strip_prefix("memory ")?;
                let (name, bytes) = rest.split_once('=')?;
                if !name.contains('.') {
                    return None; // the total line, not a component
                }
                bytes.split_whitespace().next()?.parse::<f64>().ok()
            })
            .sum();
        assert!(stats_sum > 0.0, "STATS must break memory down: {stats:?}");

        // /metrics: the scrape refreshes the gauges from the live
        // session before rendering.
        let (status, text) = lipstick_serve::client::http_get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        let samples = parse_plain_samples(&text);
        let gauge_sum: f64 = HEAP_GAUGES
            .iter()
            .map(|name| {
                *samples
                    .get(*name)
                    .unwrap_or_else(|| panic!("/metrics must export {name}"))
            })
            .sum();

        last = (gauge_sum, stats_sum);
        if (gauge_sum - stats_sum).abs() <= 0.10 * stats_sum {
            agreed = true;
            break;
        }
    }
    assert!(
        agreed,
        "heap gauges ({}) and STATS memory components ({}) must agree within 10%",
        last.0, last.1
    );

    drop(client);
    handle.shutdown();
}

fn serve_append(name: &str, workers: usize, compact_every: u64) -> lipstick_serve::ServerHandle {
    let session = Session::open_append(temp_log(name)).unwrap();
    assert!(session.is_append());
    Server::new(
        session,
        ServerConfig {
            workers,
            cache_capacity: 64,
            compact_every,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap()
}

/// Distinct base-tuple victims for concurrent deletion: base tuples are
/// sources, so no victim sits inside another victim's deletion cone and
/// every `DELETE … PROPAGATE` must succeed regardless of interleaving.
fn base_victims(n: usize) -> Vec<lipstick_core::NodeId> {
    dealers_graph()
        .iter_visible()
        .filter(|(_, node)| matches!(node.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .take(n)
        .collect()
}

/// The append-backend acceptance test: concurrent writers group-commit
/// durable tail records while readers stream queries and
/// a `COMPACT` is forced mid-run. Three invariants:
///
/// 1. **no lost writes** — every victim reads back as deleted,
/// 2. **payload matches reported epoch** — across every reader, two
///    replies stamped with the same epoch carry identical bodies (the
///    epoch names one graph version, batched or not), and
/// 3. **compaction is invisible** — the post-compaction answer equals
///    the pre-compaction answer byte for byte.
#[test]
fn append_server_group_commits_concurrent_writers_across_compact() {
    // 4 writers + 3 readers + 1 compactor pin persistent connections;
    // the pool must exceed that or latecomers starve.
    let handle = serve_append("append-race.lpstk", 12, 0);
    let addr = handle.addr();
    let victims = base_victims(8);
    assert_eq!(victims.len(), 8, "the dealers graph has 8+ base tuples");

    let stmt = "COUNT(*) MATCH nodes";
    let observed: Vec<(u64, String)> = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            readers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut seen = Vec::new();
                for _ in 0..30 {
                    let reply = client.query(stmt).unwrap();
                    let Reply::Ok { epoch, body, .. } = reply else {
                        panic!("read failed: {reply:?}");
                    };
                    seen.push((epoch, body));
                }
                seen
            }));
        }
        for pair in victims.chunks(2) {
            let pair = pair.to_vec();
            scope.spawn(move || {
                let mut writer = Client::connect(addr).unwrap();
                for victim in pair {
                    let del = writer
                        .query(&format!("DELETE #{} PROPAGATE", victim.0))
                        .unwrap();
                    assert!(del.is_ok(), "append-backed delete failed: {del:?}");
                }
            });
        }
        scope.spawn(move || {
            let mut compactor = Client::connect(addr).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            let reply = compactor.query("COMPACT").unwrap();
            assert!(reply.is_ok(), "mid-run COMPACT failed: {reply:?}");
        });
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    // One epoch, one answer — a cached result served across a bump (or
    // a half-applied batch leaking out) would violate this.
    let mut by_epoch: HashMap<u64, &String> = HashMap::new();
    for (epoch, body) in &observed {
        match by_epoch.get(epoch) {
            Some(prev) => assert_eq!(*prev, body, "epoch {epoch} answered two different payloads"),
            None => {
                by_epoch.insert(*epoch, body);
            }
        }
    }

    let mut client = Client::connect(addr).unwrap();
    for victim in &victims {
        // A deleted node no longer resolves — same rendering as the
        // resident planner gives for an invisible reference.
        let why = client.query(&format!("WHY #{}", victim.0)).unwrap();
        let Reply::Err(message) = why else {
            panic!("lost write: victim #{} still visible: {why:?}", victim.0);
        };
        assert_eq!(message, format!("unknown node reference #{}", victim.0));
    }

    // Compaction preserves ids and visibility: the answer after folding
    // the remaining tail must equal the answer before, even though the
    // client-issued COMPACT conservatively bumps the epoch.
    let before = client.query(stmt).unwrap();
    let compacted = client.query("COMPACT").unwrap();
    assert!(compacted.is_ok(), "{compacted:?}");
    let after = client.query(stmt).unwrap();
    assert_eq!(before.body(), after.body());
    assert_eq!(after.epoch(), Some(handle.epoch()));

    drop(client);
    handle.shutdown();
}

/// `ServerConfig::compact_every`: the batch leader folds the tail into
/// a fresh sealed segment after N successful mutations, so a manual
/// `COMPACT` right after finds nothing left.
#[test]
fn append_server_auto_compacts_after_n_mutations() {
    let handle = serve_append("append-auto.lpstk", 2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let victims = base_victims(2);

    for victim in &victims {
        let del = client
            .query(&format!("DELETE #{} PROPAGATE", victim.0))
            .unwrap();
        assert!(del.is_ok(), "{del:?}");
    }
    let manual = client.query("COMPACT").unwrap();
    assert!(manual.is_ok(), "{manual:?}");
    assert_eq!(
        manual.body(),
        "nothing to compact (no tail segment)",
        "auto-compaction must already have folded the tail"
    );

    drop(client);
    handle.shutdown();
}

/// The memory-accounting acceptance for the append backend: with a
/// **non-empty tail** (post-mutation, pre-compaction), the heap gauges
/// on `GET /metrics` and the `STATS` memory components must still sum
/// to the same figure — the tail overlay is accounted, not leaked — and
/// uncached reads must keep charging record decodes to the `reads`
/// trailer after mutations and after compaction.
#[test]
fn append_heap_gauges_agree_with_stats_with_non_empty_tail() {
    use lipstick_core::obs::parse_plain_samples;

    const HEAP_GAUGES: [&str; 5] = [
        "lipstick_core_graph_heap_bytes",
        "lipstick_core_reach_heap_bytes",
        "lipstick_storage_paged_log_heap_bytes",
        "lipstick_storage_fault_cache_heap_bytes",
        "lipstick_serve_cache_heap_bytes",
    ];

    let handle = serve_append("append-mem.lpstk", 2, 0);
    let mut client = Client::connect(handle.addr()).unwrap();

    let cold = client
        .query("MATCH base-nodes WHERE token LIKE '%'")
        .unwrap();
    assert!(cold.is_ok(), "{cold:?}");
    assert!(
        cold.reads().unwrap() > 0,
        "an uncached append-backed read must charge record decodes: {cold:?}"
    );
    let victim = base_victims(1)[0];
    let del = client
        .query(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    assert!(del.is_ok(), "{del:?}");

    let mut last = (0.0, 0.0);
    let mut agreed = false;
    for _ in 0..5 {
        let stats = client.query("STATS").unwrap();
        let stats_sum: f64 = stats
            .body()
            .lines()
            .filter_map(|line| {
                let rest = line.trim().strip_prefix("memory ")?;
                let (name, bytes) = rest.split_once('=')?;
                if !name.contains('.') {
                    return None; // the total line, not a component
                }
                bytes.split_whitespace().next()?.parse::<f64>().ok()
            })
            .sum();
        assert!(stats_sum > 0.0, "STATS must break memory down: {stats:?}");

        let (status, text) = lipstick_serve::client::http_get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        let samples = parse_plain_samples(&text);
        let gauge_sum: f64 = HEAP_GAUGES
            .iter()
            .map(|name| {
                *samples
                    .get(*name)
                    .unwrap_or_else(|| panic!("/metrics must export {name}"))
            })
            .sum();

        last = (gauge_sum, stats_sum);
        if (gauge_sum - stats_sum).abs() <= 0.10 * stats_sum {
            agreed = true;
            break;
        }
    }
    assert!(
        agreed,
        "append-backend heap gauges ({}) and STATS memory components ({}) must agree within 10%",
        last.0, last.1
    );

    // Post-compaction the store reopens from the fresh sealed segment;
    // uncached reads still fault records in and charge them.
    let compacted = client.query("COMPACT").unwrap();
    assert!(compacted.is_ok(), "{compacted:?}");
    let warm = client
        .query("MATCH m-nodes WHERE kind = 'invocation'")
        .unwrap();
    assert!(warm.is_ok() && !warm.cache_hit(), "{warm:?}");
    assert!(
        warm.reads().unwrap() > 0,
        "post-compaction reads must keep charging decodes: {warm:?}"
    );

    drop(client);
    handle.shutdown();
}

/// A real disk whose `sync` parks, while the gate is armed, on files
/// whose name ends with the armed suffix — until the test releases it.
/// It makes "an fsync is in progress" a state a test can hold still.
#[derive(Default)]
struct GatedIo {
    gate: std::sync::Mutex<Gate>,
    turned: std::sync::Condvar,
}

#[derive(Default)]
struct Gate {
    armed: Option<&'static str>,
    parked: usize,
}

impl GatedIo {
    /// Poison-tolerant: a failed assertion must still be able to
    /// release the gate while unwinding.
    fn gate(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn arm(&self, suffix: &'static str) {
        self.gate().armed = Some(suffix);
    }

    /// Block until a sync is parked at the gate, or fail after a while.
    fn wait_parked(&self) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut gate = self.gate();
        while gate.parked == 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            assert!(!left.is_zero(), "no sync ever reached the gate");
            gate = self
                .turned
                .wait_timeout(gate, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn parked(&self) -> usize {
        self.gate().parked
    }

    fn release(&self) {
        self.gate().armed = None;
        self.turned.notify_all();
    }
}

impl lipstick_storage::StorageIo for GatedIo {
    fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
        lipstick_storage::StdIo.read(path)
    }
    fn len(&self, path: &std::path::Path) -> std::io::Result<u64> {
        lipstick_storage::StdIo.len(path)
    }
    fn append(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        lipstick_storage::StdIo.append(path, bytes)
    }
    fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
        {
            let mut gate = self.gate();
            let name = path.to_string_lossy();
            if gate.armed.is_some_and(|suffix| name.ends_with(suffix)) {
                gate.parked += 1;
                self.turned.notify_all();
                while gate.armed.is_some() {
                    gate = self.turned.wait(gate).unwrap_or_else(|e| e.into_inner());
                }
                gate.parked -= 1;
            }
        }
        lipstick_storage::StdIo.sync(path)
    }
    fn truncate(&self, path: &std::path::Path, len: u64) -> std::io::Result<()> {
        lipstick_storage::StdIo.truncate(path, len)
    }
    fn create(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        lipstick_storage::StdIo.create(path, bytes)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        lipstick_storage::StdIo.rename(from, to)
    }
    fn unlink(&self, path: &std::path::Path) -> std::io::Result<()> {
        lipstick_storage::StdIo.unlink(path)
    }
}

/// Releases the gate when dropped, so a failing assertion cannot leave
/// server threads parked forever.
struct ReleaseOnDrop<'a>(&'a GatedIo);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Readers never wait for a disk. With a `DELETE`'s tail sync parked,
/// and again with an auto-COMPACT's temp-image sync parked: a reader on
/// another connection is answered promptly, at the epoch it was
/// published under, a second writer waits, and once the sync completes
/// the writer's reply carries the next epoch.
#[test]
fn readers_are_answered_while_a_writer_syncs() {
    use std::sync::mpsc;
    use std::time::Duration;
    type Answer = std::io::Result<(Option<u64>, bool, String)>;

    let io = Arc::new(GatedIo::default());
    let session = Session::open_append_with_io(temp_log("gated.lpstk"), io.clone()).unwrap();
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 6,
            // Every read executes under the session lock.
            cache_capacity: 0,
            compact_every: 2,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let addr = handle.addr();
    let victims = base_victims(5);
    let delete = |i: usize| format!("DELETE #{} PROPAGATE", victims[i].0);
    let count = "COUNT(*) MATCH nodes";
    let mut mirror = Session::new(dealers_graph());
    let mirror_count =
        |mirror: &Session| strip_visited(&mirror.run_read(count).unwrap().to_string());
    let answered = |rx: &mpsc::Receiver<Answer>| {
        let reply = rx.recv_timeout(Duration::from_secs(20));
        reply.expect("answered in time").expect("transport")
    };

    std::thread::scope(|scope| {
        let send = |stmt: String| {
            let (tx, rx) = mpsc::channel::<Answer>();
            scope.spawn(move || {
                let reply = Client::connect(addr).and_then(|mut c| c.query(&stmt));
                let _ = tx.send(reply.map(|r| (r.epoch(), r.is_ok(), r.body().to_string())));
            });
            rx
        };
        let _release = ReleaseOnDrop(&io);

        // A DELETE parked in its tail sync: the reader sees epoch 0 and
        // the graph without the deletion.
        let before = mirror_count(&mirror);
        io.arm(".tail");
        let first = send(delete(0));
        io.wait_parked();
        let (epoch, ok, body) = answered(&send(count.to_string()));
        assert!(ok, "{body}");
        assert_eq!((epoch, strip_visited(&body)), (Some(0), before));
        assert_eq!(io.parked(), 1, "the reader was answered mid-sync");
        let second = send(delete(1));
        assert!(
            second.recv_timeout(Duration::from_millis(300)).is_err(),
            "a second writer waits for the first"
        );
        io.release();
        assert_eq!(answered(&first).0, Some(1));
        // The second success since start compacts, ungated, before its
        // reply; one more DELETE re-arms the counter to one.
        assert_eq!(answered(&second).0, Some(2));
        assert_eq!(answered(&send(delete(2))).0, Some(3));
        for i in 0..3 {
            mirror.run_one(&delete(i)).unwrap();
        }

        // The next success is published (epoch 4), then its
        // auto-COMPACT parks in the temp image's sync: the reader sees
        // epoch 4 and the graph with the deletion.
        io.arm(".compact.tmp");
        let first = send(delete(3));
        io.wait_parked();
        mirror.run_one(&delete(3)).unwrap();
        let (epoch, ok, body) = answered(&send(count.to_string()));
        assert!(ok, "{body}");
        assert_eq!(
            (epoch, strip_visited(&body)),
            (Some(4), mirror_count(&mirror))
        );
        assert_eq!(io.parked(), 1, "the reader was answered mid-COMPACT");
        let second = send(delete(4));
        assert!(
            second.recv_timeout(Duration::from_millis(300)).is_err(),
            "a second writer waits for the compaction"
        );
        io.release();
        assert_eq!(answered(&first).0, Some(4));
        assert_eq!(answered(&second).0, Some(5));
        mirror.run_one(&delete(4)).unwrap();
        let (epoch, _, body) = answered(&send(count.to_string()));
        assert_eq!(
            (epoch, strip_visited(&body)),
            (Some(5), mirror_count(&mirror))
        );
    });
    handle.shutdown();
}

/// Serial replay of a concurrent history across auto-COMPACT: two
/// writers and two readers on one append-backed server folding its
/// tail every third success. Acked write epochs are gap-free (one bump
/// per statement), and every read equals what a resident session
/// answers after replaying the acked writes up to the epoch stamped on
/// the read.
#[test]
fn concurrent_history_replays_serially_across_auto_compact() {
    let handle = serve_append("history.lpstk", 6, 3);
    let addr = handle.addr();
    let victims = base_victims(8);
    let stmts = [
        "COUNT(*) MATCH nodes",
        "COUNT(*) MATCH base-nodes",
        "MATCH nodes GROUP BY kind ORDER BY count DESC",
    ];

    let (writes, reads) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut seen = Vec::new();
                    for _ in 0..25 {
                        for stmt in stmts {
                            let Reply::Ok { epoch, body, .. } = client.query(stmt).unwrap() else {
                                panic!("read of {stmt} failed");
                            };
                            seen.push((epoch, stmt, body));
                        }
                    }
                    seen
                })
            })
            .collect();
        let writers: Vec<_> = victims
            .chunks(4)
            .map(|mine| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut acked = Vec::new();
                    for victim in mine {
                        let stmt = format!("DELETE #{} PROPAGATE", victim.0);
                        let reply = client.query(&stmt).unwrap();
                        assert!(reply.is_ok(), "{stmt}: {reply:?}");
                        acked.push((reply.epoch().unwrap(), stmt, reply.body().to_string()));
                    }
                    acked
                })
            })
            .collect();
        let writes: Vec<(u64, String, String)> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        let reads: Vec<(u64, &str, String)> = readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect();
        (writes, reads)
    });

    let mut writes = writes;
    writes.sort_by_key(|(epoch, ..)| *epoch);
    let epochs: Vec<u64> = writes.iter().map(|(epoch, ..)| *epoch).collect();
    assert_eq!(
        epochs,
        (1..=8).collect::<Vec<u64>>(),
        "acked epochs are gap-free"
    );

    let mut reference = Session::new(dealers_graph());
    let answers = |reference: &Session| -> HashMap<&str, String> {
        let answer = |s: &str| strip_visited(&reference.run_read(s).unwrap().to_string());
        stmts.iter().map(|&s| (s, answer(s))).collect()
    };
    let mut at_epoch = vec![answers(&reference)];
    for (epoch, stmt, body) in &writes {
        let expected = reference.run_one(stmt).unwrap().to_string();
        assert_eq!(&expected, body, "epoch {epoch}: {stmt}");
        at_epoch.push(answers(&reference));
    }
    for (epoch, stmt, body) in &reads {
        assert_eq!(
            strip_visited(body),
            at_epoch[*epoch as usize][stmt],
            "{stmt} at epoch {epoch}"
        );
    }

    // Auto-compaction folded at least one batch of the tail.
    let mut client = Client::connect(addr).unwrap();
    let folded = client.query("COMPACT").unwrap();
    let left: usize = match folded.body().strip_prefix("compacted ") {
        Some(rest) => rest.split(' ').next().unwrap().parse().unwrap(),
        None => 0,
    };
    assert!(left < 8, "auto-COMPACT never ran: {folded:?}");
    drop(client);
    handle.shutdown();
}
