//! The layer suite: every layer of the product measured **from
//! outside**, by timing calls into its public functions. It runs, in
//! full, in every traced run — the per-layer metrics do not depend on
//! which workload was named — so a change to one layer shows in that
//! layer's numbers whichever workload the driver happens to trace.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use lipstick_core::obs::{HeapSize, Tracer};
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{subgraph, zoom_in, zoom_out, ReachIndex};
use lipstick_core::{GraphStore, NodeId, ProvGraph};
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_proql::ast::Statement;
use lipstick_proql::parser::parse_statement;
use lipstick_proql::{QueryOutput, Session};
use lipstick_serve::client::http_get;
use lipstick_serve::{proto, Client, QueryCache};
use lipstick_storage::{decode_graph, encode_graph, encode_graph_v2, AppendLog, PagedLog};
use lipstick_workflowgen::dealers;

use crate::common::{median_secs, tail_path, time_reps, timed, write_log, Scratch};
use crate::dealers_run;
use crate::gen::{self, Family, Mix, Stmt, L_EXEC, S_EXEC};
use crate::io::TimingIo;
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::workloads::{read_list, serve, Args, Backend, CACHE_ENTRIES, COMPACT_EVERY};

/// Graphs and lists the suite shares with the workload's traced pass.
pub struct Shared {
    pub graph_s: ProvGraph,
    pub graph_l: ProvGraph,
    pub log_s: std::path::PathBuf,
    pub log_l: std::path::PathBuf,
    pub list_s: Vec<Stmt>,
    pub list_l: Vec<Stmt>,
    pub fragments: Vec<ProvGraph>,
}

fn p50_us(mut secs: Vec<f64>) -> f64 {
    stats::sort(&mut secs);
    stats::median_sorted(&secs) * 1e6
}

/// Result rows of an output: nodes, table rows, or one for scalars.
fn rows(out: &QueryOutput) -> usize {
    match out {
        QueryOutput::Nodes(n) => n.len(),
        QueryOutput::Table(t) => t.len(),
        _ => 1,
    }
    .max(1)
}

pub fn run(args: &Args, scratch: &Scratch, report: &mut Report) -> Shared {
    let reps = if args.smoke { 1 } else { 5 };
    let shared = tracking(args, scratch, reps, report);
    core_query(args, &shared, reps, report);
    core_reach(args, &shared, reps, report);
    storage_read(&shared, reps, report);
    let io = TimingIo::new(None);
    storage_append(args, scratch, &shared, &io, report);
    proql(args, scratch, &shared, &io, report);
    report_io(&io, report);
    serve_layer(args, &shared, report);
    trace_overhead(args, &shared, report);
    scale(args, scratch, &shared, report);
    shared
}

// ---------------------------------------------------------------------------
// piglatin, workflow, core.graph
// ---------------------------------------------------------------------------

/// Tracking cost (Fig 5), and — since the paired runs produce the L
/// graph anyway — the graphs, logs and lists the rest of the suite and
/// the traced pass share.
fn tracking(args: &Args, scratch: &Scratch, reps: usize, report: &mut Report) -> Shared {
    let compile = median_secs(reps * 2 - 1, || dealers::build(&mut UdfRegistry::new()));
    report.set("piglatin.compile_ms", compile * 1e3, "ms", reps * 2 - 1);

    // Fig 5(a): the L run in alternating tracked / untracked pairs.
    let params = gen::dealers_params(L_EXEC, 200, args.seed);
    let mut graph_l = None;
    let (mut untracked_us, mut track_us, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..reps {
        let (t, u) = if pair % 2 == 0 {
            let t = dealers_run::run_tracked(&params);
            (t, dealers_run::run_untracked(&params))
        } else {
            let u = dealers_run::run_untracked(&params);
            (dealers_run::run_tracked(&params), u)
        };
        let (ts, us): (f64, f64) = (t.exec_secs.iter().sum(), u.exec_secs.iter().sum());
        let n = L_EXEC as f64;
        untracked_us.push(us / n * 1e6);
        track_us.push((ts - us) / n * 1e6);
        ratios.push(ts / us);
        graph_l = t.graph;
    }
    let graph_l = graph_l.expect("one pair or more");
    report.set(
        "workflow.exec_notrack_us",
        stats::median(untracked_us),
        "us",
        reps,
    );
    report.set("core.graph.track_us", stats::median(track_us), "us", reps);
    report.set(
        "core.graph.tracking_overhead_ratio",
        stats::median(ratios),
        "ratio",
        reps,
    );
    let n = L_EXEC as f64;
    report.set(
        "core.graph.nodes_per_exec",
        graph_l.len() as f64 / n,
        "count",
        1,
    );
    report.set(
        "core.graph.edges_per_exec",
        graph_l.visible_edge_count() as f64 / n,
        "count",
        1,
    );
    report.set(
        "core.graph.heap_bytes_per_node",
        graph_l.heap_bytes() as f64 / graph_l.len() as f64,
        "bytes",
        1,
    );

    // Fig 5(c): module-level parallelism, 2 reducers against 1, on S.
    let params_s = gen::dealers_params(S_EXEC, 200, args.seed);
    let mut speedups = Vec::new();
    for pair in 0..reps {
        let (one, two) = if pair % 2 == 0 {
            let one = dealers_run::run_parallel(&params_s, 1);
            (one, dealers_run::run_parallel(&params_s, 2))
        } else {
            let two = dealers_run::run_parallel(&params_s, 2);
            (dealers_run::run_parallel(&params_s, 1), two)
        };
        speedups.push(one / two);
    }
    report.set(
        "workflow.parallel2_ratio",
        stats::median(speedups),
        "ratio",
        reps,
    );

    let graph_s = gen::tracked_graph(&params_s);
    let (log_s, log_l) = (
        scratch.path("layers-s.lpstk"),
        scratch.path("layers-l.lpstk"),
    );
    write_log(&graph_s, &log_s);
    write_log(&graph_l, &log_l);
    Shared {
        list_s: read_list(&graph_s, args.seed, Mix::Uniform),
        list_l: read_list(&graph_l, args.seed, Mix::Uniform),
        fragments: gen::fragments(args.seed, 32),
        graph_s,
        graph_l,
        log_s,
        log_l,
    }
}

// ---------------------------------------------------------------------------
// core.query (Fig 7, §5.6) and core.reach
// ---------------------------------------------------------------------------

fn roots_of(list: &[Stmt], n: usize) -> Vec<NodeId> {
    let mut roots: Vec<u32> = list.iter().flat_map(|s| s.roots.iter().copied()).collect();
    roots.sort_unstable();
    roots.dedup();
    // Spread the pick over the id range, deterministically.
    let step = (roots.len() / n.max(1)).max(1);
    roots
        .into_iter()
        .step_by(step)
        .take(n)
        .map(NodeId)
        .collect()
}

fn core_query(args: &Args, shared: &Shared, reps: usize, report: &mut Report) {
    let mut graph = shared.graph_l.clone();
    let module = format!("Mdealer{}", 1 + Rng::new(args.seed).fork(3).below(4));
    let (mut out_ms, mut in_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps.min(3) {
        let (_, secs) = timed(|| zoom_out(&mut graph, &[module.as_str()]).expect("zoom out"));
        out_ms.push(secs * 1e3);
        let (_, secs) = timed(|| zoom_in(&mut graph, &[module.as_str()]).expect("zoom in"));
        in_ms.push(secs * 1e3);
    }
    report.set(
        "core.query.zoom_out_ms",
        stats::median(out_ms.clone()),
        "ms",
        out_ms.len(),
    );
    report.set(
        "core.query.zoom_in_ms",
        stats::median(in_ms.clone()),
        "ms",
        in_ms.len(),
    );

    let roots = roots_of(&shared.list_l, if args.smoke { 10 } else { 80 });
    let graph = &shared.graph_l;
    let sub: Vec<f64> = roots
        .iter()
        .map(|&r| timed(|| subgraph(graph, r).expect("visible root")).1)
        .collect();
    report.set("core.query.subgraph_us", p50_us(sub), "us", roots.len());
    let del: Vec<f64> = roots
        .iter()
        .map(|&r| timed(|| compute_deletion(graph, r).expect("visible root")).1)
        .collect();
    report.set("core.query.delete_us", p50_us(del), "us", roots.len());
}

fn core_reach(args: &Args, shared: &Shared, reps: usize, report: &mut Report) {
    let graph = &shared.graph_s;
    let builds = reps.min(3);
    let build = median_secs(builds, || ReachIndex::build(graph));
    report.set("core.reach.build_ms", build * 1e3, "ms", builds);
    let index = ReachIndex::build(graph);
    report.set(
        "core.reach.bytes_per_node",
        index.heap_bytes() as f64 / graph.len() as f64,
        "bytes",
        1,
    );
    let roots = roots_of(&shared.list_s, if args.smoke { 20 } else { 400 });
    let lookups: Vec<f64> = roots
        .iter()
        .map(|&r| timed(|| index.ancestors(r)).1 * 1e9)
        .collect();
    report.set(
        "core.reach.lookup_ns",
        stats::median(lookups),
        "ns",
        roots.len(),
    );
    drop(index);

    // Incremental repair: the same deletes on an indexed and a plain
    // session, paired; the difference is the closure's upkeep.
    let mut indexed = Session::new(graph.clone());
    indexed.run_one("BUILD INDEX").expect("build index");
    let mut plain = Session::new(graph.clone());
    let victims = gen::victims(
        graph,
        &mut Rng::new(args.seed).fork(60),
        if args.smoke { 5 } else { 40 },
        &[],
    );
    let repair: Vec<f64> = victims
        .iter()
        .map(|v| {
            let stmt = format!("DELETE #{v} PROPAGATE");
            let (_, with) = timed(|| indexed.run_one(&stmt).expect("delete"));
            let (_, without) = timed(|| plain.run_one(&stmt).expect("delete"));
            (with - without) * 1e6
        })
        .collect();
    report.set(
        "core.reach.repair_us",
        stats::median(repair),
        "us",
        victims.len(),
    );
}

// ---------------------------------------------------------------------------
// storage: codec, paged reads
// ---------------------------------------------------------------------------

fn storage_read(shared: &Shared, reps: usize, report: &mut Report) {
    let graph = &shared.graph_l;
    let encode = median_secs(reps, || encode_graph_v2(graph).expect("encode"));
    report.set("storage.encode_ms", encode * 1e3, "ms", reps);
    let bytes = encode_graph_v2(graph).expect("encode");
    let decode = median_secs(reps, || decode_graph(&bytes).expect("decode"));
    report.set("storage.decode_ms", decode * 1e3, "ms", reps);
    drop(bytes);
    let open = median_secs(reps, || PagedLog::open(&shared.log_l).expect("open"));
    report.set("storage.open_ms", open * 1e3, "ms", reps);

    // Every record faulted once (cold), then read again (warm).
    let n = graph.len();
    let (mut fault_ns, mut warm_ns, mut cache_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.min(3) {
        let log = PagedLog::open(&shared.log_l).expect("open");
        let sweep = |log: &PagedLog| {
            let start = Instant::now();
            for id in 0..n as u32 {
                std::hint::black_box(log.preds_of(NodeId(id)));
            }
            start.elapsed().as_nanos() as f64 / n as f64
        };
        fault_ns.push(sweep(&log));
        warm_ns.push(sweep(&log));
        let fault_cache = log
            .heap_breakdown()
            .into_iter()
            .find(|(name, _)| *name == "fault_cache")
            .map_or(0, |(_, b)| b);
        cache_bytes.push(fault_cache as f64 / n as f64);
    }
    let k = fault_ns.len();
    report.set("storage.fault_ns", stats::median(fault_ns), "ns", k * n);
    report.set("storage.warm_read_ns", stats::median(warm_ns), "ns", k * n);
    report.set(
        "storage.fault_cache_bytes_per_node",
        stats::median(cache_bytes),
        "bytes",
        k,
    );

    // Records decoded per result row, over the list on a cold session.
    let session = Session::open(&shared.log_l).expect("open");
    let (mut reads, mut result_rows) = (0usize, 0usize);
    for stmt in &shared.list_l {
        let before = session.records_read();
        let out = session.run_read(&stmt.text).expect("list statement");
        reads += session.records_read() - before;
        result_rows += rows(&out);
    }
    report.set(
        "storage.reads_per_result",
        reads as f64 / result_rows as f64,
        "count",
        shared.list_l.len(),
    );
}

// ---------------------------------------------------------------------------
// storage: append log, directly
// ---------------------------------------------------------------------------

fn storage_append(
    args: &Args,
    scratch: &Scratch,
    shared: &Shared,
    io: &Arc<TimingIo>,
    report: &mut Report,
) {
    let path = scratch.path("layers-append.lpstk");
    write_log(&shared.graph_l, &path);
    let open = |path: &Path| AppendLog::open_with_io(path, io.clone()).expect("open append log");
    let mut log = open(&path);
    let batches = if args.smoke { 1 } else { 3 };
    let (mut commit_us, mut compact_ms, mut rewritten, mut recover_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tail_bytes, mut written, mut user_bytes) = (0u64, 0u64, 0u64);
    for batch in 0..batches {
        let (tail_before, written_before) = (log.tail_len(), io.bytes_written());
        for i in 0..COMPACT_EVERY as usize {
            let fragment = &shared.fragments[(batch * 7 + i) % shared.fragments.len()];
            let (_, secs) = timed(|| log.commit_fragment(fragment).expect("commit fragment"));
            commit_us.push(secs * 1e6);
            user_bytes += encode_graph(fragment).expect("encode fragment").len() as u64;
        }
        tail_bytes += log.tail_len() - tail_before;
        written += io.bytes_written() - written_before;
        // Recovery: reopen with the 50-record tail still in place.
        drop(log);
        let (reopened, secs) = timed(|| open(&path));
        recover_ms.push(secs * 1e3);
        log = reopened;
        assert_eq!(
            log.tail_records(),
            COMPACT_EVERY as usize,
            "tail replays whole"
        );
        let before = io.bytes_written();
        let (_, secs) = timed(|| log.compact().expect("compact"));
        compact_ms.push(secs * 1e3);
        rewritten.push((io.bytes_written() - before) as f64);
    }
    let commits = commit_us.len();
    report.set(
        "storage.commit_fragment_us",
        stats::median(commit_us),
        "us",
        commits,
    );
    report.set(
        "storage.tail_bytes_per_commit",
        tail_bytes as f64 / commits as f64,
        "bytes",
        commits,
    );
    report.set(
        "storage.write_amp",
        written as f64 / user_bytes as f64,
        "ratio",
        commits,
    );
    report.set(
        "storage.compact_ms",
        stats::median(compact_ms),
        "ms",
        batches,
    );
    report.set(
        "storage.compact_bytes_rewritten",
        stats::median(rewritten),
        "bytes",
        batches,
    );
    report.set(
        "storage.recover_ms",
        stats::median(recover_ms),
        "ms",
        batches,
    );
}

fn report_io(io: &TimingIo, report: &mut Report) {
    let c = &io.counts;
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    report.set(
        "storage.io.append_calls",
        count(&c.append_calls) as f64,
        "count",
        1,
    );
    report.set(
        "storage.io.sync_calls",
        count(&c.sync_calls) as f64,
        "count",
        1,
    );
    report.set(
        "storage.io.read_calls",
        count(&c.read_calls) as f64,
        "count",
        1,
    );
    report.set(
        "storage.io.bytes_written",
        count(&c.bytes_written) as f64,
        "bytes",
        1,
    );
    let appends = c.append_us.lock().expect("latency list").clone();
    let syncs = c.sync_us.lock().expect("latency list").clone();
    report.set(
        "storage.io.append_us_p50",
        stats::median(appends.clone()),
        "us",
        appends.len(),
    );
    report.set(
        "storage.io.sync_us_p50",
        stats::median(syncs.clone()),
        "us",
        syncs.len(),
    );
}

// ---------------------------------------------------------------------------
// proql: parse, analyze, plan, run per family and backend, render, writes
// ---------------------------------------------------------------------------

fn run_family(session: &Session, list: &[(Statement, Family)], backend: &str, report: &mut Report) {
    for family in Family::ALL {
        let secs: Vec<f64> = list
            .iter()
            .filter(|(_, f)| *f == family)
            .map(|(stmt, _)| timed(|| session.run_read_stmt(stmt).expect("list statement")).1)
            .collect();
        let n = secs.len();
        report.set(
            &format!("proql.run_us.{}.{backend}", family.name()),
            p50_us(secs),
            "us",
            n,
        );
    }
}

fn proql(args: &Args, scratch: &Scratch, shared: &Shared, io: &Arc<TimingIo>, report: &mut Report) {
    let take = if args.smoke { 45 } else { 270 };
    let parsed = |list: &[Stmt]| -> Vec<(Statement, Family)> {
        list.iter()
            .take(take)
            .map(|s| {
                (
                    parse_statement(&s.text).expect("generated statement parses"),
                    s.family,
                )
            })
            .collect()
    };
    let texts: Vec<&str> = shared
        .list_l
        .iter()
        .take(take)
        .map(|s| s.text.as_str())
        .collect();
    let parse: Vec<f64> = texts
        .iter()
        .map(|t| timed(|| parse_statement(t)).1)
        .collect();
    report.set("proql.parse_us", p50_us(parse), "us", texts.len());
    let analyze: Vec<f64> = texts
        .iter()
        .map(|t| timed(|| lipstick_proql::analyze::analyze(&shared.graph_l, t)).1)
        .collect();
    report.set("proql.analyze_us", p50_us(analyze), "us", texts.len());

    let list_l = parsed(&shared.list_l);
    let resident = Session::load(&shared.log_l).expect("load");
    let paged = Session::open(&shared.log_l).expect("open");
    for (name, session) in [("resident", &resident), ("paged", &paged)] {
        let plan: Vec<f64> = list_l
            .iter()
            .map(|(stmt, _)| timed(|| session.plan(stmt).expect("plans")).1)
            .collect();
        report.set(
            &format!("proql.plan_us.{name}"),
            p50_us(plan),
            "us",
            list_l.len(),
        );
    }
    run_family(&resident, &list_l, "resident_l", report);
    // One pass to fault the list's records in, then the timed pass:
    // the cold cost is `storage.fault_ns`, not the executor's.
    let outputs: Vec<QueryOutput> = list_l
        .iter()
        .map(|(stmt, _)| paged.run_read_stmt(stmt).expect("list statement"))
        .collect();
    run_family(&paged, &list_l, "paged_l", report);
    let render: Vec<f64> = outputs
        .iter()
        .map(|out| timed(|| (out.to_string(), out.to_json())).1)
        .collect();
    report.set("proql.render_us", p50_us(render), "us", outputs.len());
    drop((outputs, resident, paged));

    let indexed = Backend::ResidentIndexed.open(&shared.log_s);
    run_family(&indexed, &parsed(&shared.list_s), "indexed_s", report);
    drop(indexed);

    // Mutations on an append session, through the timing IO.
    let path = scratch.path("layers-writes.lpstk");
    write_log(&shared.graph_l, &path);
    let mut session = Session::open_append_with_io(&path, io.clone()).expect("open append");
    let n = if args.smoke { 5 } else { 40 };
    let ingest: Vec<f64> = (0..n)
        .map(|i| {
            let fragment = &shared.fragments[i % shared.fragments.len()];
            timed(|| session.ingest(fragment).expect("ingest")).1
        })
        .collect();
    report.set("proql.write_us.ingest", p50_us(ingest), "us", n);
    let victims = gen::victims(&shared.graph_l, &mut Rng::new(args.seed).fork(61), n, &[]);
    let delete: Vec<f64> = victims
        .iter()
        .map(|v| {
            timed(|| {
                session
                    .run_one(&format!("DELETE #{v} PROPAGATE"))
                    .expect("delete")
            })
            .1
        })
        .collect();
    report.set("proql.write_us.delete", p50_us(delete), "us", n);
    let module = format!("Mdealer{}", 1 + Rng::new(args.seed).fork(3).below(4));
    let pairs = if args.smoke { 1 } else { 3 };
    let (mut zoom_out_us, mut zoom_in_us) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let zoom = format!("ZOOM OUT TO {module}");
        zoom_out_us.push(timed(|| session.run_one(&zoom).expect("zoom out")).1);
        zoom_in_us.push(timed(|| session.run_one("ZOOM IN").expect("zoom in")).1);
    }
    report.set("proql.write_us.zoom_out", p50_us(zoom_out_us), "us", pairs);
    report.set("proql.write_us.zoom_in", p50_us(zoom_in_us), "us", pairs);
    let (_, compact) = timed(|| session.run_one("COMPACT").expect("compact"));
    report.set("proql.write_us.compact", compact * 1e6, "us", 1);
    assert_eq!(session.promotions(), 0, "append sessions never promote");
    drop(session);
    let _ = std::fs::remove_file(tail_path(&path));
}

// ---------------------------------------------------------------------------
// serve: framing, cache, and a small live server
// ---------------------------------------------------------------------------

fn metric_sample(scrape: &str, name: &str) -> f64 {
    lipstick_core::obs::parse_plain_samples(scrape)
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// The median of a run of round trips, taken over its undisturbed
/// stretches: where the scheduler puts client and worker decides whether
/// a round trip costs one context switch or a cross-core wake-up, and
/// that flips every few hundred milliseconds. Medians of sixteen
/// consecutive chunks, best quarter (see `stats::best_quarter_mean`).
fn undisturbed_median(samples: &[f64]) -> f64 {
    let chunk = (samples.len() / 16).max(1);
    let medians = samples
        .chunks(chunk)
        .map(|c| stats::median(c.to_vec()))
        .collect();
    stats::best_quarter_mean(medians, true)
}

fn serve_layer(args: &Args, shared: &Shared, report: &mut Report) {
    let reps = if args.smoke { 100 } else { 3000 };
    // Framing: a typical 1 KiB payload written, then parsed back.
    let payload = "N12345 N23456 N34567 N45678 N56789 N67890 N78901\n".repeat(21);
    let mut buf = Vec::with_capacity(2048);
    let frame = time_reps(reps, || {
        buf.clear();
        proto::write_ok(&mut buf, &payload, false, 7, 123, 45).expect("write frame");
        proto::read_reply(&mut buf.as_slice()).expect("read frame")
    });
    report.set(
        "serve.proto.roundtrip_ns",
        stats::median(frame) * 1e9,
        "ns",
        reps,
    );

    let cache = QueryCache::new(CACHE_ENTRIES);
    let result = lipstick_serve::cache::CachedResult {
        text: payload.clone(),
        json: payload.clone(),
    };
    let keys: Vec<String> = (0..reps)
        .map(|i| format!("ANCESTORS OF #{i} DEPTH 3"))
        .collect();
    let insert = time_reps(reps, {
        let mut i = 0;
        let (cache, keys, result) = (&cache, &keys, &result);
        move || {
            cache.insert(keys[i % keys.len()].clone(), 0, result.clone());
            i += 1;
        }
    });
    report.set(
        "serve.cache.insert_ns",
        stats::median(insert) * 1e9,
        "ns",
        reps,
    );
    // The last CACHE_ENTRIES keys inserted are resident: all hits.
    let resident = &keys[keys.len().saturating_sub(CACHE_ENTRIES.min(keys.len()))..];
    let get = time_reps(reps, {
        let mut i = 0;
        let cache = &cache;
        move || {
            let hit = cache.get(&resident[i % resident.len()], 0);
            i += 1;
            hit
        }
    });
    report.set("serve.cache.get_ns", stats::median(get) * 1e9, "ns", reps);

    // A live server on S: a guaranteed-hit round trip, the wire's own
    // overhead on misses, then a Zipf stream for the cache counters.
    let handle = serve(
        Backend::ResidentIndexed.open(&shared.log_s),
        CACHE_ENTRIES,
        0,
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let hot = &shared.list_s[0].text;
    assert!(client.query(hot).expect("warm the cache").is_ok());
    let hits = time_reps(reps, || {
        let reply = client.query(hot).expect("hot query");
        assert!(reply.cache_hit(), "the hot statement stays cached");
    });
    report.set(
        "serve.rtt_hit_us",
        undisturbed_median(&hits) * 1e6,
        "us",
        reps,
    );
    let n = shared.list_s.len().min(reps);
    let overhead: Vec<f64> = shared.list_s[..n]
        .iter()
        .map(|stmt| {
            let (reply, secs) = timed(|| client.query(&stmt.text).expect("query"));
            secs * 1e6 - reply.time_us().unwrap_or(0) as f64
        })
        .collect();
    report.set("serve.overhead_us", undisturbed_median(&overhead), "us", n);
    let zipf = Zipf::new(shared.list_s.len());
    let mut rng = Rng::new(args.seed).fork(70);
    let (hits_before, misses_before) = handle.cache_stats();
    for _ in 0..reps * 2 {
        let reply = client
            .query(&shared.list_s[zipf.sample(&mut rng)].text)
            .expect("query");
        assert!(reply.is_ok(), "list statements succeed");
    }
    let (hits_after, misses_after) = handle.cache_stats();
    let (h, m) = (hits_after - hits_before, misses_after - misses_before);
    report.set(
        "serve.cache.hit_ratio",
        h as f64 / (h + m).max(1) as f64,
        "ratio",
        reps * 2,
    );
    let stats_payload = client.query("STATS").expect("STATS").body().to_string();
    let evictions = stats_payload
        .split("evictions=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    report.set("serve.cache.evictions", evictions, "count", 1);
    report.set("serve.retries_total", client.retries() as f64, "count", 1);
    // Both workers may hold persistent connections; free ours before
    // the HTTP scrape needs one.
    drop(client);
    let (status, scrape) = http_get(handle.addr(), "/metrics").expect("scrape /metrics");
    assert!(status.contains("200"), "scrape answered {status}");
    report.set(
        "serve.busy_total",
        metric_sample(&scrape, "lipstick_serve_shed_total"),
        "count",
        1,
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// obs: what a live tracer costs
// ---------------------------------------------------------------------------

fn trace_overhead(args: &Args, shared: &Shared, report: &mut Report) {
    let session = Backend::ResidentIndexed.open(&shared.log_s);
    let list: Vec<Statement> = shared
        .list_s
        .iter()
        .take(if args.smoke { 30 } else { 200 })
        .map(|s| parse_statement(&s.text).expect("parses"))
        .collect();
    let untraced = || {
        for stmt in &list {
            std::hint::black_box(session.run_read_stmt(stmt).expect("runs"));
        }
    };
    let traced = || {
        for stmt in &list {
            let tracer = Tracer::new();
            std::hint::black_box(
                session
                    .run_read_stmt_traced(stmt, Some(&tracer))
                    .expect("runs"),
            );
            std::hint::black_box(tracer.finish());
        }
    };
    // Paired, alternating order, as `bench_obs` does: drift hits both
    // sides of a pair equally.
    let pairs = if args.smoke { 3 } else { 21 };
    let ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (u, t) = if pair % 2 == 0 {
                let u = timed(untraced).1;
                (u, timed(traced).1)
            } else {
                let t = timed(traced).1;
                (timed(untraced).1, t)
            };
            t / u
        })
        .collect();
    report.set(
        "obs.trace_overhead_pct",
        (stats::median(ratios) - 1.0) * 100.0,
        "%",
        pairs,
    );
}

// ---------------------------------------------------------------------------
// scale: 11k / 182k / 1M nodes
// ---------------------------------------------------------------------------

struct ScalePoint {
    nodes: usize,
    track_us_per_node: f64,
    encode_ns_per_node: f64,
    decode_ns_per_node: f64,
    open_ms: f64,
    walk_us_paged: f64,
    walk_us_resident: f64,
}

fn scale_point(num_exec: usize, seed: u64, scratch: &Scratch, reps: usize) -> ScalePoint {
    let params = gen::dealers_params(num_exec, 200, seed);
    let (graph, track) = timed(|| gen::tracked_graph(&params));
    scale_rest(graph, track, scratch, reps)
}

/// Everything measured on a tracked graph of some size.
fn scale_rest(graph: ProvGraph, track: f64, scratch: &Scratch, reps: usize) -> ScalePoint {
    let nodes = graph.len();
    let (bytes, encode) = timed(|| encode_graph_v2(&graph).expect("encode"));
    let decode = median_secs(reps, || decode_graph(&bytes).expect("decode"));
    let path = scratch.path("scale.lpstk");
    std::fs::write(&path, &bytes).expect("write scale log");
    drop(bytes);
    let open = median_secs(reps, || PagedLog::open(&path).expect("open"));
    // The same bounded walk from roots spread over the id range.
    let walks: Vec<Statement> = (1..=24u64)
        .map(|i| {
            let root = nodes as u64 * i / 25;
            parse_statement(&format!("ANCESTORS OF #{root} DEPTH 3")).expect("parses")
        })
        .collect();
    let walk_p50 = |session: &Session| {
        p50_us(
            walks
                .iter()
                .map(|stmt| timed(|| session.run_read_stmt(stmt).expect("walk")).1)
                .collect(),
        )
    };
    let paged = Session::open(&path).expect("open");
    walk_p50(&paged); // fault the records in first
    let walk_us_paged = walk_p50(&paged);
    drop(paged);
    let walk_us_resident = walk_p50(&Session::new(graph));
    let _ = std::fs::remove_file(&path);
    ScalePoint {
        nodes,
        track_us_per_node: track * 1e6 / nodes as f64,
        encode_ns_per_node: encode * 1e9 / nodes as f64,
        decode_ns_per_node: decode * 1e9 / nodes as f64,
        open_ms: open * 1e3,
        walk_us_paged,
        walk_us_resident,
    }
}

fn scale(args: &Args, scratch: &Scratch, shared: &Shared, report: &mut Report) {
    // Nodes grow a little faster than linearly in `num_exec` (each
    // execution consults the bids accumulated so far), so fit
    // n(e) = a·e + b·e² through S and L, start just under the fit's
    // answer for a million nodes, and step up until the graph gets
    // there. A smoke run stops at a tenth of that.
    let target = if args.smoke { 100_000.0 } else { 1_000_000.0 };
    let (es, el) = (S_EXEC as f64, L_EXEC as f64);
    let (rs, rl) = (
        shared.graph_s.len() as f64 / es,
        shared.graph_l.len() as f64 / el,
    );
    let b = (rl - rs) / (el - es);
    let a = rs - b * es;
    let fit = (-a + (a * a + 4.0 * b * target).sqrt()) / (2.0 * b);
    let mut xl_exec = (fit * 0.99) as usize;
    let reps = if args.smoke { 1 } else { 3 };
    let small = scale_point(20, args.seed, scratch, reps);
    let large = scale_point(L_EXEC, args.seed, scratch, reps);
    let xl = loop {
        let params = gen::dealers_params(xl_exec, 200, args.seed);
        let (graph, track) = timed(|| gen::tracked_graph(&params));
        if graph.len() as f64 >= target {
            break scale_rest(graph, track, scratch, reps);
        }
        xl_exec += (xl_exec / 100).max(1);
    };
    report.note(
        "scale.nodes",
        format!("{} / {} / {}", small.nodes, large.nodes, xl.nodes),
    );
    report.note("scale.xl_num_exec", xl_exec);
    let mut ratio = |name: &str, f: &dyn Fn(&ScalePoint) -> f64| {
        report.note(
            &format!("scale.{name}.abs"),
            format!("{:.3} / {:.3} / {:.3}", f(&small), f(&large), f(&xl)),
        );
        report.set(&format!("scale.{name}"), f(&xl) / f(&large), "ratio", 1);
    };
    ratio("track_us_per_node", &|p| p.track_us_per_node);
    ratio("encode_ns_per_node", &|p| p.encode_ns_per_node);
    ratio("decode_ns_per_node", &|p| p.decode_ns_per_node);
    ratio("open_ms", &|p| p.open_ms);
    ratio("walk_us.paged", &|p| p.walk_us_paged);
    ratio("walk_us.resident", &|p| p.walk_us_resident);
}
