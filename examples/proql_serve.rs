//! Serve ProQL over the network.
//!
//! With no graph argument it executes the Car-dealerships workflow and
//! serves the captured provenance; `--open PATH` serves a v2 log paged
//! (queries fault in only the records they touch; `DELETE` and `ZOOM`
//! are refused, as it is a read-only snapshot), `--load PATH` decodes a
//! v1/v2 log fully first, `--append PATH` serves the log as an append
//! session (mutations commit durable tail records; pair with
//! `--compact-every N` to auto-`COMPACT` the tail after every N
//! successful mutations).
//!
//! ```sh
//! cargo run --release --example proql_serve -- --open prov.lpstk --addr 127.0.0.1:7433
//! # then, from another terminal:
//! printf "MATCH base-nodes;\n" | nc 127.0.0.1 7433
//! curl -s -X POST --data "MATCH base-nodes" http://127.0.0.1:7433/query
//! curl -s "http://127.0.0.1:7433/explain?q=MATCH+base-nodes"
//! ```
//!
//! `--query-log PATH` captures every executed statement as structured
//! JSONL (servable live via `GET /log?n=`, replayable with
//! `bench_replay`).
//!
//! Overload guards (all off by default): `--request-deadline-us N`
//! cancels reads cooperatively after N µs, `--write-queue-limit N`
//! sheds mutations with `BUSY retry_after_ms=` once N are queued, and
//! `--idle-timeout-us N` drops connections that stall mid-request.
//!
//! `--self-test` writes the demo graph to a temp v2 log, serves it
//! **paged** on an ephemeral port, drives a scripted client through
//! both protocols, and exits non-zero on any mismatch — the CI smoke
//! test.

use lipstick::core::GraphTracker;
use lipstick::proql::Session;
use lipstick::serve::client::{http_get_explain, http_post_query};
use lipstick::serve::{Client, QueryLogConfig, Server, ServerConfig};
use lipstick::workflowgen::dealers::{self, DealersParams};

struct Args {
    session: Session,
    addr: String,
    workers: usize,
    query_log: Option<QueryLogConfig>,
    self_test: bool,
    compact_every: u64,
    request_deadline_us: u64,
    write_queue_limit: usize,
    idle_timeout_us: u64,
}

fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut session = None;
    let mut addr = "127.0.0.1:7433".to_string();
    let mut workers = 4;
    let mut query_log = None;
    let mut self_test = false;
    let mut compact_every = 0u64;
    let mut request_deadline_us = 0u64;
    let mut write_queue_limit = 0usize;
    let mut idle_timeout_us = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--request-deadline-us" => {
                request_deadline_us = args
                    .next()
                    .ok_or("--request-deadline-us requires microseconds")?
                    .parse()
                    .map_err(|_| "--request-deadline-us requires a number")?;
            }
            "--write-queue-limit" => {
                write_queue_limit = args
                    .next()
                    .ok_or("--write-queue-limit requires a count")?
                    .parse()
                    .map_err(|_| "--write-queue-limit requires a number")?;
            }
            "--idle-timeout-us" => {
                idle_timeout_us = args
                    .next()
                    .ok_or("--idle-timeout-us requires microseconds")?
                    .parse()
                    .map_err(|_| "--idle-timeout-us requires a number")?;
            }
            "--open" => {
                let path = args.next().ok_or("--open requires a path")?;
                eprintln!("opening provenance log {path} lazily (v2 footer index)");
                session = Some(Session::open(path)?);
            }
            "--load" => {
                let path = args.next().ok_or("--load requires a path")?;
                eprintln!("loading provenance log {path}");
                session = Some(Session::load(path)?);
            }
            "--append" => {
                let path = args.next().ok_or("--append requires a path")?;
                eprintln!("opening provenance log {path} for appending (WAL tail segment)");
                session = Some(Session::open_append(path)?);
            }
            "--compact-every" => {
                compact_every = args
                    .next()
                    .ok_or("--compact-every requires a count")?
                    .parse()
                    .map_err(|_| "--compact-every requires a number")?;
            }
            "--addr" => addr = args.next().ok_or("--addr requires HOST:PORT")?,
            "--workers" => {
                workers = args
                    .next()
                    .ok_or("--workers requires a count")?
                    .parse()
                    .map_err(|_| "--workers requires a number")?;
            }
            "--query-log" => {
                let path = args.next().ok_or("--query-log requires a path")?;
                eprintln!("capturing the structured query log to {path} (JSONL)");
                query_log = Some(QueryLogConfig::new(path));
            }
            "--self-test" => {
                self_test = true;
                addr = "127.0.0.1:0".to_string();
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    let session = match session {
        Some(s) => s,
        None => {
            eprintln!("running the Car-dealerships workflow (24 cars, 3 executions)…");
            let params = DealersParams {
                num_cars: 24,
                num_exec: 3,
                seed: 7,
            };
            let mut tracker = GraphTracker::new();
            dealers::run_declining(&params, &mut tracker)?;
            let graph = tracker.finish();
            if self_test {
                // The smoke test exercises the paged path end to end:
                // demo graph → temp v2 log → Session::open.
                let path = std::env::temp_dir().join("lipstick-serve-selftest.lpstk");
                lipstick::storage::write_graph_v2(&graph, &path)?;
                let session = Session::open(&path)?;
                assert!(session.is_paged());
                session
            } else {
                Session::new(graph)
            }
        }
    };
    if self_test && query_log.is_none() {
        // The smoke test covers the capture path too: a query log in
        // the temp dir, checked and removed by `self_test`.
        query_log = Some(QueryLogConfig::new(std::env::temp_dir().join(format!(
            "lipstick-serve-selftest-{}.jsonl",
            std::process::id()
        ))));
    }
    Ok(Args {
        session,
        addr,
        workers,
        query_log,
        self_test,
        compact_every,
        request_deadline_us,
        write_queue_limit,
        idle_timeout_us,
    })
}

fn self_test(
    handle: &lipstick::serve::ServerHandle,
    qlog_path: Option<&std::path::Path>,
) -> Result<(), Box<dyn std::error::Error>> {
    let addr = handle.addr();
    let mut client = Client::connect(addr)?;

    let cold = client.query("MATCH base-nodes")?;
    if !cold.is_ok() || cold.cache_hit() {
        return Err(format!("cold query misbehaved: {cold:?}").into());
    }
    let warm = client.query("match BASE-NODES ;")?;
    if !warm.cache_hit() || warm.body() != cold.body() {
        return Err(format!("normalized re-query must hit the cache: {warm:?}").into());
    }
    for stmt in [
        "STATS",
        "EXPLAIN MATCH m-nodes",
        "MATCH m-nodes WHERE execution < 1",
    ] {
        let reply = client.query(stmt)?;
        if !reply.is_ok() {
            return Err(format!("{stmt} failed: {reply:?}").into());
        }
    }
    let analyze = client.query("EXPLAIN ANALYZE MATCH base-nodes")?;
    if !analyze.is_ok() || !analyze.body().contains("actuals:") {
        return Err(format!("EXPLAIN ANALYZE misbehaved: {analyze:?}").into());
    }

    let (status, body) = http_post_query(addr, "MATCH base-nodes")?;
    if status != "HTTP/1.1 200 OK" || !body.contains(r#""cache_hit":true"#) {
        return Err(format!("HTTP query misbehaved: {status} {body}").into());
    }
    if !body.contains(r#""time_us":"#) || !body.contains(r#""reads":"#) {
        return Err(format!("HTTP query must carry timing fields: {body}").into());
    }
    let (status, body) = http_get_explain(addr, "MATCH+base-nodes")?;
    if status != "HTTP/1.1 200 OK" || !body.contains(r#""plan":"#) {
        return Err(format!("HTTP explain misbehaved: {status} {body}").into());
    }

    // The observability surface: /metrics must be a valid Prometheus
    // exposition naming the serve series, /slow must answer JSON.
    let (status, metrics) = lipstick::serve::client::http_get(addr, "/metrics")?;
    if status != "HTTP/1.1 200 OK" {
        return Err(format!("GET /metrics: {status}").into());
    }
    lipstick::core::obs::validate_prometheus_text(&metrics)
        .map_err(|e| format!("/metrics invalid: {e}"))?;
    if !metrics.contains("lipstick_serve_queries_total") {
        return Err(format!("/metrics must name the serve series:\n{metrics}").into());
    }
    let (status, slow) = lipstick::serve::client::http_get(addr, "/slow?n=5")?;
    if status != "HTTP/1.1 200 OK" || !slow.contains(r#""ok":true"#) {
        return Err(format!("GET /slow misbehaved: {status} {slow}").into());
    }

    // Memory accounting: the heap-byte gauges must be present and, for
    // a paged backend, non-zero — /metrics refreshes them at scrape
    // time from the live session.
    for gauge in [
        "lipstick_storage_paged_log_heap_bytes",
        "lipstick_serve_cache_heap_bytes",
    ] {
        if !metrics.contains(gauge) {
            return Err(format!("/metrics must export {gauge}:\n{metrics}").into());
        }
    }
    let stats = client.query("STATS")?;
    if !stats.body().contains("memory store.") || !stats.body().contains("memory total=") {
        return Err(format!("STATS must report the memory breakdown: {stats:?}").into());
    }

    // The structured query log: every statement so far must be an
    // event, and the newest must be servable over GET /log.
    if let Some(path) = qlog_path {
        let events = handle.query_log_events();
        if events != handle.queries() {
            return Err(format!(
                "query log recorded {events} event(s) for {} statement(s)",
                handle.queries()
            )
            .into());
        }
        let (status, log) = lipstick::serve::client::http_get(addr, "/log?n=3")?;
        if status != "HTTP/1.1 200 OK" || !log.contains(r#""result_fnv":"#) {
            return Err(format!("GET /log misbehaved: {status} {log}").into());
        }
        let parsed = lipstick::serve::qlog::read_log(path);
        if parsed.len() as u64 != events {
            return Err(format!(
                "capture file parsed back {} of {events} event(s)",
                parsed.len()
            )
            .into());
        }
        std::fs::remove_file(path).ok();
    }

    // Robustness surface: the overload series must already render (at
    // zero is fine) so dashboards see them before the first incident.
    for series in [
        "lipstick_serve_shed_total",
        "lipstick_serve_deadline_exceeded_total",
        "lipstick_storage_io_errors_total",
    ] {
        if !metrics.contains(series) {
            return Err(format!("/metrics must export {series}:\n{metrics}").into());
        }
    }

    self_test_shutdown_durability()?;

    let (hits, misses) = handle.cache_stats();
    eprintln!(
        "self-test ok: {} queries, {hits} cache hits, {misses} misses, {} log event(s)",
        handle.queries(),
        handle.query_log_events()
    );
    Ok(())
}

/// Graceful-shutdown durability: an **append** server acknowledges
/// writes, shuts down gracefully mid-session, and a fresh session on
/// the same files must recover every acked write. This is the restart
/// a deploy performs, exercised end to end.
fn self_test_shutdown_durability() -> Result<(), Box<dyn std::error::Error>> {
    use lipstick::core::NodeKind;
    use lipstick::serve::client::RetryPolicy;

    let params = DealersParams {
        num_cars: 24,
        num_exec: 3,
        seed: 7,
    };
    let mut tracker = GraphTracker::new();
    dealers::run_declining(&params, &mut tracker)?;
    let graph = tracker.finish();
    let victims: Vec<_> = graph
        .iter_visible()
        .filter(|(_, node)| matches!(node.kind, NodeKind::BaseTuple { .. }))
        .map(|(id, _)| id)
        .take(2)
        .collect();
    if victims.len() < 2 {
        return Err("demo graph has too few base tuples".into());
    }
    let path = std::env::temp_dir().join(format!(
        "lipstick-serve-selftest-drain-{}.lpstk",
        std::process::id()
    ));
    lipstick::storage::write_graph_v2(&graph, &path)?;
    let mut tail = path.clone().into_os_string();
    tail.push(".tail");
    std::fs::remove_file(&tail).ok();

    // All three guards armed, none restrictive enough to interfere.
    let handle = Server::new(
        Session::open_append(&path)?,
        ServerConfig {
            workers: 2,
            write_queue_limit: 64,
            request_deadline_us: 10_000_000,
            idle_timeout_us: 10_000_000,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")?;
    let mut client = Client::connect(handle.addr())?;
    for victim in &victims {
        let reply = client.query_with_retry(
            &format!("DELETE #{} PROPAGATE", victim.0),
            &RetryPolicy::default(),
        )?;
        if !reply.is_ok() {
            return Err(format!("append delete not acked: {reply:?}").into());
        }
    }
    // Shut down with the connection still open: the drain must deliver
    // in-flight replies, half-close the socket, and sync the tail.
    handle.shutdown();
    let registry = lipstick::core::obs::registry().render_prometheus();
    if !registry.contains("lipstick_serve_shutdown_drain_us") {
        return Err("shutdown did not set the drain-time gauge".into());
    }

    // Restart on the same files: every acked write must have survived.
    let mut reopened = Session::open_append(&path)?;
    for victim in &victims {
        match reopened.run(&format!("WHY #{};", victim.0)) {
            Err(e) if e.to_string() == format!("unknown node reference #{}", victim.0) => {}
            other => {
                return Err(format!(
                    "acked delete of #{} lost across graceful shutdown: {other:?}",
                    victim.0
                )
                .into())
            }
        }
    }
    drop(reopened);
    std::fs::remove_file(&tail).ok();
    std::fs::remove_file(&path).ok();
    eprintln!("self-test: graceful shutdown drained, synced, and lost no acked write");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let backend = if args.session.is_append() {
        "append"
    } else if args.session.is_paged() {
        "paged"
    } else {
        "resident"
    };
    let qlog_path = args.query_log.as_ref().map(|c| c.path.clone());
    let handle = Server::new(
        args.session,
        ServerConfig {
            workers: args.workers,
            query_log: args.query_log,
            compact_every: args.compact_every,
            request_deadline_us: args.request_deadline_us,
            write_queue_limit: args.write_queue_limit,
            idle_timeout_us: args.idle_timeout_us,
            ..ServerConfig::default()
        },
    )
    .serve(&args.addr)?;
    eprintln!(
        "lipstick-serve listening on {} ({backend} backend, {} workers)",
        handle.addr(),
        args.workers
    );
    if args.self_test {
        let result = self_test(&handle, qlog_path.as_deref());
        handle.shutdown();
        return result;
    }
    eprintln!("line protocol: one statement per line; HTTP: POST /query, GET /explain?q=…");
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
