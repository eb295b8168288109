//! Overload and shutdown hardening: bounded write-queue shedding
//! (`BUSY retry_after_ms=`), client retry convergence, per-request
//! read deadlines, idle-connection timeouts, and graceful shutdown
//! that loses no acked write.

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_proql::parser::parse_statement;
use lipstick_proql::Session;
use lipstick_serve::client::{http_get, RetryPolicy};
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
    let dir = std::env::temp_dir().join("lipstick-serve-overload-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_graph_v2(&dealers_graph(), &path).unwrap();
    // A WAL tail left by a previous run binds to a byte-identical base
    // (same generator, same seed) and would replay its mutations into
    // this run; start from a sealed base only.
    let mut tail = path.clone().into_os_string();
    tail.push(".tail");
    let _ = std::fs::remove_file(tail);
    path
}

fn base_victims(n: usize) -> Vec<lipstick_core::NodeId> {
    dealers_graph()
        .iter_visible()
        .filter(|(_, node)| matches!(node.kind, lipstick_core::NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .take(n)
        .collect()
}

/// A saturating mutation burst against `write_queue_limit: 1` must
/// shed with `BUSY` (bounded queue, typed reply, statement not
/// executed), the shed counter must advance, and a client retrying
/// with backoff must still land every write exactly once.
#[test]
fn bounded_write_queue_sheds_busy_and_retries_converge() {
    let session = Session::open_append(temp_log("shed.lpstk")).unwrap();
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 16,
            write_queue_limit: 1,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let addr = handle.addr();

    // Phase 1: a storm of no-op mutations (the zoom target does not
    // exist, so state never changes) from 12 concurrent writers. With
    // a queue bound of one, admission races must shed some of them.
    // The storm repeats — bounded — until a shed is observed; one
    // round has overwhelmingly high probability already.
    let mut busy_seen = 0u64;
    for _round in 0..10 {
        let busy: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..12)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut busy = 0u64;
                        for _ in 0..20 {
                            match client.query("ZOOM OUT TO NoSuchModule").unwrap() {
                                Reply::Busy { retry_after_ms } => {
                                    assert!(
                                        (1..=1_000).contains(&retry_after_ms),
                                        "hint out of contract: {retry_after_ms}"
                                    );
                                    busy += 1;
                                }
                                Reply::Err(_) | Reply::Ok { .. } => {}
                            }
                        }
                        busy
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        busy_seen += busy;
        if busy_seen > 0 {
            break;
        }
    }
    assert!(busy_seen > 0, "no shed observed across 2400 racing writes");

    // Phase 2: concurrent *real* deletes through the retry client.
    // BUSY guarantees non-execution, so a retried DELETE lands exactly
    // once — each must come back Ok, never "unknown node reference".
    let victims = base_victims(8);
    let policy = RetryPolicy {
        max_attempts: 200,
        base_backoff_ms: 1,
        max_backoff_ms: 8,
    };
    std::thread::scope(|scope| {
        for victim in &victims {
            let policy = policy.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let reply = client
                    .query_with_retry(&format!("DELETE #{} PROPAGATE", victim.0), &policy)
                    .unwrap();
                assert!(reply.is_ok(), "retried delete failed: {reply:?}");
            });
        }
    });

    // Server still healthy: reads work, sheds were counted.
    let mut client = Client::connect(addr).unwrap();
    for victim in &victims {
        let why = client.query(&format!("WHY #{}", victim.0)).unwrap();
        assert!(matches!(why, Reply::Err(_)), "lost write: {why:?}");
    }
    let (_, metrics) = http_get(addr, "/metrics").unwrap();
    let shed = metrics
        .lines()
        .find_map(|l| l.strip_prefix("lipstick_serve_shed_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("shed counter exported");
    assert!(
        shed >= busy_seen as f64,
        "counter {shed} < observed {busy_seen}"
    );

    drop(client);
    handle.shutdown();
}

/// A 1 µs request deadline cancels every uncached read with a typed
/// `deadline exceeded` error, counts it, and leaves the connection and
/// session fully usable — mutations never carry the deadline.
#[test]
fn request_deadline_cancels_reads_and_spares_writes() {
    let session = Session::open_append(temp_log("deadline.lpstk")).unwrap();
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 2,
            request_deadline_us: 1,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let reply = client.query("MATCH nodes").unwrap();
    let Reply::Err(message) = &reply else {
        panic!("a 1µs deadline must cancel the read, got {reply:?}");
    };
    assert!(
        message.contains("deadline"),
        "error names the deadline: {message}"
    );

    // A mutation on the same connection runs to completion: deadlines
    // are a read-path contract (a write is never left half-applied).
    let victim = base_victims(1)[0];
    let del = client
        .query(&format!("DELETE #{} PROPAGATE", victim.0))
        .unwrap();
    assert!(del.is_ok(), "mutation hit the read deadline: {del:?}");

    let (_, metrics) = http_get(handle.addr(), "/metrics").unwrap();
    let exceeded = metrics
        .lines()
        .find_map(|l| l.strip_prefix("lipstick_serve_deadline_exceeded_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("deadline counter exported");
    assert!(exceeded >= 1.0, "counter never advanced: {exceeded}");

    drop(client);
    handle.shutdown();
}

/// The slowloris guard: a connection that stalls mid-session longer
/// than `idle_timeout_us` is dropped, while a promptly-speaking client
/// on the same server is untouched.
#[test]
fn idle_connections_time_out_without_harming_active_ones() {
    let session = Session::open(temp_log("idle.lpstk")).unwrap();
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 4,
            idle_timeout_us: 50_000, // 50 ms
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();

    // The idler completes one statement, then goes quiet past the
    // timeout; its next query must fail (server closed the socket).
    let mut idler = Client::connect(handle.addr()).unwrap();
    assert!(idler.query("MATCH base-nodes").unwrap().is_ok());
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert!(
        idler.query("MATCH base-nodes").is_err(),
        "idle connection survived the timeout"
    );

    // An active client keeps the connection by speaking inside the
    // window — the timeout is per-read idleness, not connection age.
    let mut active = Client::connect(handle.addr()).unwrap();
    for _ in 0..6 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let reply = active.query("MATCH base-nodes").unwrap();
        assert!(reply.is_ok(), "active connection dropped: {reply:?}");
    }

    // The retry client treats the close as transient: it reconnects
    // and completes, counting the retry.
    std::thread::sleep(std::time::Duration::from_millis(250));
    let reply = active
        .query_with_retry("MATCH base-nodes", &RetryPolicy::default())
        .unwrap();
    assert!(reply.is_ok(), "reconnect-and-retry failed: {reply:?}");
    assert!(active.retries() >= 1, "retry not counted");

    drop(idler);
    drop(active);
    handle.shutdown();
}

/// The durability acceptance: writers race a graceful shutdown, and
/// every write that was **acked** (its `OK` reply reached the client)
/// must be present after reopening the same files — the drain synced
/// the tail before `shutdown()` returned. The drain-time gauge is set.
#[test]
fn graceful_shutdown_loses_no_acked_write() {
    let path = temp_log("drain.lpstk");
    let session = Session::open_append(&path).unwrap();
    assert!(session.is_append());
    let handle = Server::new(
        session,
        ServerConfig {
            workers: 6,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .unwrap();
    let addr = handle.addr();

    // Three writers chew through disjoint victim sets while the main
    // thread pulls the plug mid-run. Each records only the deletes the
    // server actually acknowledged.
    let victims = base_victims(8);
    let (first, rest) = victims.split_at(2);
    let chunks: Vec<Vec<lipstick_core::NodeId>> = rest.chunks(2).map(|c| c.to_vec()).collect();
    // Two deletes land before shutdown begins, so the survivor set is
    // never trivially empty.
    let mut client = Client::connect(addr).unwrap();
    let mut acked: Vec<lipstick_core::NodeId> = Vec::new();
    for victim in first {
        assert!(client
            .query(&format!("DELETE #{} PROPAGATE", victim.0))
            .unwrap()
            .is_ok());
        acked.push(*victim);
    }
    drop(client);

    let racing: Vec<lipstick_core::NodeId> = std::thread::scope(|scope| {
        let writers: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let Ok(mut client) = Client::connect(addr) else {
                        return acked; // accept loop already closed
                    };
                    for victim in chunk {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        match client.query(&format!("DELETE #{} PROPAGATE", victim.0)) {
                            Ok(reply) if reply.is_ok() => acked.push(victim),
                            // An ERR (e.g. raced statement), a BUSY, or
                            // the shutdown half-close: not acked, and
                            // the connection may be done for.
                            Ok(_) => {}
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(12));
        handle.shutdown();
        writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    acked.extend(racing);
    assert!(acked.len() >= 2, "at least the pre-shutdown acks exist");

    // Shutdown set the drain gauge in the process-global registry.
    let rendered = lipstick_core::obs::registry().render_prometheus();
    assert!(
        rendered.contains("lipstick_serve_shutdown_drain_us"),
        "drain gauge missing from registry"
    );

    // Reopen the same files: every acked delete must have survived.
    let reopened = Session::open_append(&path).unwrap();
    for victim in &acked {
        let why = parse_statement(&format!("WHY #{}", victim.0)).unwrap();
        let err = reopened
            .run_read_stmt(&why)
            .expect_err("acked delete lost across graceful shutdown");
        assert_eq!(
            err.to_string(),
            format!("unknown node reference #{}", victim.0)
        );
    }
}
