//! The six workloads, run end to end with tracing off. Each function
//! sets its store up (several times, for a steady `setup_s`), replays
//! its traffic for the requested time in five rounds, checks every
//! answer against an in-process resident reference, and reports the
//! end-to-end metrics of `BENCHMARK.json`.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use lipstick_core::ProvGraph;
use lipstick_proql::Session;
use lipstick_serve::client::RetryPolicy;
use lipstick_serve::{Client, Reply, Server, ServerConfig, ServerHandle};

use crate::common::{
    self, file_len, fingerprint, reference_answer, tail_path, timed, write_log, Scratch,
};
use crate::dealers_run;
use crate::gen::{self, Mix, Stmt, L_EXEC, S_EXEC};
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::wire::{self, ClientLog, Keep, Sample};

/// Closed-loop client connections, and server workers to match.
pub const CLIENTS: usize = 2;
/// Rounds a timed region is split into. Many short rounds, because on a
/// small shared host whole rounds run fast or slow together (thread
/// placement, a neighbour's load) and the statistics below are taken
/// over rounds, not over pooled samples.
pub const ROUNDS: usize = 16;
/// Statements in a read list.
pub const LIST_LEN: usize = 600;
/// Nodes whose cones are measured to draw roots from.
pub const CONE_SAMPLES: usize = 3000;
/// Result-cache entries where the cache is on (the product default).
pub const CACHE_ENTRIES: usize = 256;
/// Mutations between auto-compactions on the write workload.
pub const COMPACT_EVERY: u64 = 50;
/// Deletes between `ZOOM OUT` / `ZOOM IN` pairs on the write workload.
pub const DELETES_PER_ZOOM: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrackDealers,
    ServeHotCache,
    ReadIndexedSmall,
    ReadResidentLarge,
    ReadPagedLarge,
    WriteAppend,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TrackDealers,
        Workload::ServeHotCache,
        Workload::ReadIndexedSmall,
        Workload::ReadResidentLarge,
        Workload::ReadPagedLarge,
        Workload::WriteAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrackDealers => "track_dealers",
            Workload::ServeHotCache => "serve_hot_cache",
            Workload::ReadIndexedSmall => "read_indexed_small",
            Workload::ReadResidentLarge => "read_resident_large",
            Workload::ReadPagedLarge => "read_paged_large",
            Workload::WriteAppend => "write_append",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn num_exec(self) -> usize {
        match self {
            Workload::ServeHotCache | Workload::ReadIndexedSmall => S_EXEC,
            _ => L_EXEC,
        }
    }

    /// How the workload's serving session is opened from a log on disk.
    pub fn backend(self) -> Backend {
        match self {
            Workload::ServeHotCache | Workload::ReadIndexedSmall => Backend::ResidentIndexed,
            Workload::ReadResidentLarge => Backend::Resident,
            Workload::TrackDealers | Workload::ReadPagedLarge => Backend::Paged,
            Workload::WriteAppend => Backend::Append,
        }
    }

    pub fn mix(self) -> Mix {
        match self {
            Workload::ReadIndexedSmall => Mix::ReachHeavy,
            _ => Mix::Uniform,
        }
    }

    pub fn cache_entries(self) -> usize {
        match self {
            Workload::ServeHotCache | Workload::WriteAppend => CACHE_ENTRIES,
            _ => 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Resident,
    ResidentIndexed,
    Paged,
    Append,
}

impl Backend {
    pub fn open(self, log: &Path) -> Session {
        match self {
            Backend::Resident => Session::load(log).expect("load log"),
            Backend::ResidentIndexed => {
                let mut s = Session::load(log).expect("load log");
                s.run_one("BUILD INDEX").expect("build index");
                s
            }
            Backend::Paged => Session::open(log).expect("open log"),
            Backend::Append => Session::open_append(log).expect("open log for append"),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// 1/50 of the traffic, a quarter of the rounds, one set-up; same
    /// checks. Numbers from a smoke run are not comparable.
    pub smoke: bool,
}

impl Args {
    pub fn region(&self) -> Duration {
        let secs = if self.smoke {
            self.seconds / 50.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs.max(0.01))
    }

    pub fn rounds(&self) -> usize {
        if self.smoke {
            ROUNDS / 4
        } else {
            ROUNDS
        }
    }

    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

pub fn serve(session: Session, cache_entries: usize, compact_every: u64) -> ServerHandle {
    Server::new(
        session,
        ServerConfig {
            workers: CLIENTS,
            cache_capacity: cache_entries,
            compact_every,
            ..ServerConfig::default()
        },
    )
    .serve("127.0.0.1:0")
    .expect("bind loopback listener")
}

/// Generate the workload's graph, write its log, open the serving
/// session and answer one statement — what a user waits for before
/// the first query. Returns the graph and the open session.
fn set_up(w: Workload, seed: u64, log: &Path) -> (ProvGraph, Session) {
    let graph = gen::tracked_graph(&gen::dealers_params(w.num_exec(), 200, seed));
    write_log(&graph, log);
    let session = w.backend().open(log);
    session
        .run_read("COUNT(*) MATCH m-nodes")
        .expect("first answer");
    (graph, session)
}

/// Run [`set_up`] `args.setups()` times; keep the last and report the
/// median.
fn set_up_repeatedly(args: &Args, log: &Path) -> (ProvGraph, Session, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..args.setups() {
        drop(last.take());
        let (made, secs) = timed(|| set_up(args.workload, args.seed, log));
        times.push(secs);
        last = Some(made);
    }
    let (graph, session) = last.expect("one set-up or more");
    (graph, session, times)
}

/// The statement list of a read workload and the resident reference's
/// fingerprint of every statement.
pub struct Inputs {
    pub list: Vec<Stmt>,
    pub expected: Vec<u64>,
}

/// The seeded statement list of a read workload.
pub fn read_list(graph: &ProvGraph, seed: u64, mix: Mix) -> Vec<Stmt> {
    let rng = Rng::new(seed);
    let cones = gen::sample_cones(graph, &mut rng.fork(1), CONE_SAMPLES);
    gen::statements(graph, &cones, &mut rng.fork(2), LIST_LEN, mix, &|_| true)
}

pub fn read_inputs(w: Workload, seed: u64, graph: &ProvGraph, log: &Path) -> Inputs {
    let list = read_list(graph, seed, w.mix());
    let reference = Session::load(log).expect("load reference");
    let expected = expected_fingerprints(&reference, &list);
    Inputs { list, expected }
}

pub fn expected_fingerprints(reference: &Session, list: &[Stmt]) -> Vec<u64> {
    list.iter()
        .map(|s| match reference_answer(reference, &s.text) {
            Ok(payload) => fingerprint(&payload),
            Err(e) => panic!(
                "generated statement fails on the reference: {}: {e}",
                s.text
            ),
        })
        .collect()
}

/// Per-client statement orders. The hot-cache workload draws Zipf(1.0)
/// over the list (rank 0 = first statement). Every other workload
/// walks the list in its own order, each client starting a different
/// way round: the generator interleaves families, directions, cone
/// bins and parameter strata, so any stretch of a few dozen
/// statements is a fair sample of the whole list and short rounds stay
/// comparable (a shuffle would undo that).
pub fn sequences(w: Workload, seed: u64, list_len: usize) -> Vec<Vec<u32>> {
    (0..CLIENTS)
        .map(|c| {
            if w == Workload::ServeHotCache {
                let mut rng = Rng::new(seed).fork(100 + c as u64);
                let zipf = Zipf::new(list_len);
                (0..50_000).map(|_| zipf.sample(&mut rng) as u32).collect()
            } else {
                let start = c * list_len / CLIENTS;
                (0..list_len)
                    .map(|i| ((start + i) % list_len) as u32)
                    .collect()
            }
        })
        .collect()
}

/// How a workload's rounds relate, which decides the statistic taken
/// over them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rounds {
    /// Every round replays the same traffic, so they differ only by
    /// interference, which is one-sided: report the mean of the best
    /// quarter (see [`stats::best_quarter_mean`]).
    Alike,
    /// Every round is a different draw — another dataset and another
    /// hash seed per dealers pair, on purpose, so that a run averages
    /// over them: report the pooled median latency and the overall
    /// rate (picking rounds would pick a kind of draw).
    Draws,
    /// Rounds differ by what lands in them — a zoom pair or a COMPACT
    /// in some rounds of the write workload and not in others: pooled
    /// median and overall rate again.
    Uneven,
}

/// Latency and throughput metrics out of each round's samples (µs),
/// operation count and duration (s).
fn report_ops(report: &mut Report, kind: Rounds, rounds: &[Vec<f64>], counts: &[(usize, f64)]) {
    let mut pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
    stats::sort(&mut pooled);
    let round_p50: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| stats::median(r.clone()))
        .collect();
    let rates: Vec<f64> = counts.iter().map(|&(n, secs)| n as f64 / secs).collect();
    let (ops, secs) = counts
        .iter()
        .fold((0usize, 0.0), |(n, s), &(dn, ds)| (n + dn, s + ds));
    let (rate, p50) = match kind {
        Rounds::Alike => (
            stats::best_quarter_mean(rates.clone(), false),
            stats::best_quarter_mean(round_p50.clone(), true),
        ),
        Rounds::Draws | Rounds::Uneven => (ops as f64 / secs, stats::median_sorted(&pooled)),
    };
    report.set("ops_per_s", rate, "1/s", rates.len());
    report.set("op_p50_us", p50, "us", pooled.len());
    // The tail: p99 of all samples pooled — except where rounds are
    // draws (`track_dealers`), whose pooled tail is whichever draws
    // were slowest; there, the median over rounds of each round's tail.
    let (percentile, value) = match kind {
        Rounds::Draws => {
            let tails: Vec<(f64, f64)> = rounds
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| {
                    let mut r = r.clone();
                    stats::sort(&mut r);
                    stats::tail_sorted(&r)
                })
                .collect();
            (
                stats::median(tails.iter().map(|t| t.0).collect()),
                stats::median(tails.iter().map(|t| t.1).collect()),
            )
        }
        Rounds::Alike | Rounds::Uneven => stats::tail_sorted(&pooled),
    };
    report.set("op_p99_us", value, "us", pooled.len());
    report.note("op_tail_percentile", format!("{percentile:.2}"));
    report.note(
        "pooled_p50_us",
        format!("{:.3}", stats::median_sorted(&pooled)),
    );
    report.note("overall_ops_per_s", format!("{:.1}", ops as f64 / secs));
    report.note("round_p50_us", format!("{round_p50:.1?}"));
    report.note("round_ops_per_s", format!("{rates:.0?}"));
}

/// `graph_load_ms` (`Session::load` of the workload's log, Fig 6) and
/// `open_ms` (log on disk → first answer on the workload's serving
/// backend), probed once between rounds so the samples straddle
/// whatever the host is doing; the best quarter is reported.
struct Probes<'a> {
    log: &'a Path,
    backend: Backend,
    first: String,
    load_ms: Vec<f64>,
    open_ms: Vec<f64>,
}

impl<'a> Probes<'a> {
    fn new(w: Workload, log: &'a Path, first: &str) -> Probes<'a> {
        Probes {
            log,
            backend: w.backend(),
            first: first.to_string(),
            load_ms: Vec::new(),
            open_ms: Vec::new(),
        }
    }

    fn probe(&mut self) {
        let (_, load) = timed(|| Session::load(self.log).expect("load log"));
        self.load_ms.push(load * 1e3);
        let (_, open) = timed(|| {
            let session = self.backend.open(self.log);
            session.run_read(&self.first).expect("first answer")
        });
        self.open_ms.push(open * 1e3);
    }

    fn report(mut self, report: &mut Report) {
        if self.load_ms.is_empty() {
            self.probe();
        }
        let n = self.load_ms.len();
        report.set(
            "graph_load_ms",
            stats::best_quarter_mean(self.load_ms, true),
            "ms",
            n,
        );
        report.set(
            "open_ms",
            stats::best_quarter_mean(self.open_ms, true),
            "ms",
            n,
        );
    }
}

/// What every run records about itself, traced or not.
pub fn note_run(report: &mut Report, args: &Args) {
    report.note("workload", args.workload.name());
    report.note("seed", args.seed);
    report.note("seconds", args.region().as_secs_f64());
    report.note("smoke_not_comparable", args.smoke);
    report.note(
        "host_threads",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
}

fn note_inputs(report: &mut Report, args: &Args, graph: &ProvGraph) {
    note_run(report, args);
    report.note("clients", CLIENTS);
    report.note("graph_nodes", graph.len());
    report.note("graph_edges", graph.visible_edge_count());
}

/// The metrics every workload ends on: space per node, set-up time,
/// and the process's memory high-water mark.
fn report_space_and_setup(
    report: &mut Report,
    log_bytes: u64,
    nodes: usize,
    heap_bytes: f64,
    visible_nodes: usize,
    setup: &[f64],
) {
    report.set(
        "log_bytes_per_node",
        log_bytes as f64 / nodes as f64,
        "bytes",
        1,
    );
    report.set(
        "heap_bytes_per_node",
        heap_bytes / visible_nodes as f64,
        "bytes",
        1,
    );
    report.set("setup_s", stats::median(setup.to_vec()), "s", setup.len());
    report.set("peak_rss_mb", common::peak_rss_mb(), "MB", 1);
}

pub fn run(args: &Args) -> Report {
    match args.workload {
        Workload::TrackDealers => track_dealers(args),
        Workload::WriteAppend => write_append(args),
        _ => wire_reads(args),
    }
}

// ---------------------------------------------------------------------------
// track_dealers
// ---------------------------------------------------------------------------

fn track_dealers(args: &Args) -> Report {
    let mut report = Report::default();
    let scratch = Scratch::new();
    let log = scratch.path("track.lpstk");
    let (graph, session, setup) = set_up_repeatedly(args, &log);
    drop(session);
    note_inputs(&mut report, args, &graph);

    // Alternating pairs, so drift hits both sides of a ratio equally.
    // Each pair runs a different dataset drawn from the seed (another
    // inventory, another buyer): how much an execution costs depends on
    // how many cars match the buyer, and the median over many draws is
    // steadier than any one of them. Each pair also runs on a thread of
    // its own: `HashMap`'s per-thread random keys alone move an
    // execution's cost by a fifth, and a fresh thread redraws them.
    let log_bytes = file_len(&log);
    let mut probes = Probes::new(args.workload, &log, "COUNT(*) MATCH m-nodes");
    let mut rounds = Vec::new();
    let mut counts = Vec::new();
    let mut ratios = Vec::new();
    let deadline = Instant::now() + args.region();
    let mut pair = 0usize;
    while pair == 0 || Instant::now() < deadline {
        let params = gen::dealers_params(L_EXEC, 200, args.seed ^ ((pair as u64) << 32));
        let (tracked, untracked) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    if pair.is_multiple_of(2) {
                        let t = dealers_run::run_tracked(&params);
                        (t, dealers_run::run_untracked(&params))
                    } else {
                        let u = dealers_run::run_untracked(&params);
                        (dealers_run::run_tracked(&params), u)
                    }
                })
                .join()
                .expect("pair thread panicked")
        });
        let tracked_secs: f64 = tracked.exec_secs.iter().sum();
        let untracked_secs: f64 = untracked.exec_secs.iter().sum();
        ratios.push(tracked_secs / untracked_secs);
        counts.push((tracked.exec_secs.len(), tracked_secs));
        rounds.push(
            tracked
                .exec_secs
                .iter()
                .map(|s| s * 1e6)
                .collect::<Vec<f64>>(),
        );
        // Tracking must not change what the workflow computes, and the
        // tracked graph must be a whole one.
        let tracked_graph = tracked.graph.expect("tracking on");
        report.check(if tracked.last_outputs != untracked.last_outputs {
            Err(format!("pair {pair}: tracked and untracked outputs differ"))
        } else if pair == 0
            && (tracked_graph.len() != graph.len()
                || tracked_graph.visible_edge_count() != graph.visible_edge_count())
        {
            Err("the first pair's graph differs from the set-up graph".to_string())
        } else if tracked_graph.invocations().len() < L_EXEC {
            Err(format!(
                "pair {pair}: the tracked graph is missing invocations"
            ))
        } else {
            Ok(())
        });
        pair += 1;
        if pair.is_multiple_of(4) {
            probes.probe();
        }
    }
    report.note(
        "executions_timed",
        rounds.iter().map(Vec::len).sum::<usize>(),
    );
    report.note(
        "tracking_overhead_ratio",
        format!(
            "{:.4} (median of {} pairs)",
            stats::median(ratios.clone()),
            ratios.len()
        ),
    );
    report_ops(&mut report, Rounds::Draws, &rounds, &counts);

    // Fig 6: the log written at set-up, loaded back.
    probes.report(&mut report);
    let loaded = Session::load(&log).expect("load log");
    report.check(
        if loaded.graph().visible_signature() == graph.visible_signature() {
            Ok(())
        } else {
            Err("the loaded log does not reproduce the tracked graph".into())
        },
    );
    report_space_and_setup(
        &mut report,
        log_bytes,
        graph.len(),
        loaded.heap_bytes() as f64,
        graph.visible_count(),
        &setup,
    );
    report
}

// ---------------------------------------------------------------------------
// serve_hot_cache, read_indexed_small, read_resident_large, read_paged_large
// ---------------------------------------------------------------------------

/// Check one round's client logs against the reference fingerprints:
/// every kept body must match the reference (visited-masked), and every
/// other reply must be byte-identical to the kept body of its
/// statement. Returns the latencies.
fn check_read_logs(logs: &[ClientLog], inputs: &Inputs, report: &mut Report) -> Vec<f64> {
    let mut latencies_us = Vec::new();
    let mut raw_of: HashMap<u32, u64> = HashMap::new();
    for log in logs {
        if let Some(e) = &log.error {
            report.check(Err(format!("transport: {e}")));
        }
        for (at, body) in &log.bodies {
            let sample = &log.samples[*at as usize];
            let stmt = &inputs.list[sample.stmt as usize];
            if sample.ok && fingerprint(body) == inputs.expected[sample.stmt as usize] {
                raw_of.entry(sample.stmt).or_insert(sample.raw_fnv);
            } else {
                report.check(Err(format!("{} answered {:.80}", stmt.text, body)));
            }
        }
    }
    for log in logs {
        for sample in &log.samples {
            latencies_us.push(sample.latency_us);
            report.check(match raw_of.get(&sample.stmt) {
                Some(&raw) if sample.ok && raw == sample.raw_fnv => Ok(()),
                _ => Err(format!(
                    "{} gave an answer the reference does not",
                    inputs.list[sample.stmt as usize].text
                )),
            });
        }
    }
    latencies_us
}

fn wire_reads(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let scratch = Scratch::new();
    let log = scratch.path("read.lpstk");

    // Set-up as the user pays it: generate, write, open (+ index),
    // bring the server up, connect.
    let mut setup = Vec::new();
    let mut live: Option<(ProvGraph, ServerHandle)> = None;
    for _ in 0..args.setups() {
        if let Some((_, handle)) = live.take() {
            handle.shutdown();
        }
        let (made, secs) = timed(|| {
            let (graph, session) = set_up(w, args.seed, &log);
            let handle = serve(session, w.cache_entries(), 0);
            let mut client = Client::connect(handle.addr()).expect("connect");
            assert!(client
                .query("COUNT(*) MATCH m-nodes")
                .expect("query")
                .is_ok());
            (graph, handle)
        });
        setup.push(secs);
        live = Some(made);
    }
    let (graph, mut handle) = live.expect("one set-up or more");
    note_inputs(&mut report, args, &graph);
    let log_bytes = file_len(&log);
    let inputs = read_inputs(w, args.seed, &graph, &log);
    report.note("statements", inputs.list.len());
    report.note("list_fingerprint", gen::list_fingerprint(&inputs.list));
    let mut probes = Probes::new(w, &log, &inputs.list[0].text);

    let sequences = sequences(w, args.seed, inputs.list.len());
    let mut positions = vec![0usize; CLIENTS];
    let mut rounds = Vec::new();
    let mut counts: Vec<(usize, f64)> = Vec::new();
    let (mut hits, mut replies, mut retries) = (0u64, 0u64, 0u64);
    let round = args.region() / args.rounds() as u32;
    for r in 0..args.rounds() {
        if w == Workload::ReadPagedLarge && r > 0 {
            // A fresh session each round: cold faults are paid again.
            handle.shutdown();
            handle = serve(w.backend().open(&log), w.cache_entries(), 0);
        }
        let (logs, secs) = wire::run_round(
            handle.addr(),
            &inputs.list,
            &sequences,
            &positions,
            Keep::FirstPerStatement,
            round,
        );
        counts.push((logs.iter().map(|l| l.samples.len()).sum(), secs));
        if r % 2 == 1 {
            probes.probe();
        }
        for (pos, log) in positions.iter_mut().zip(&logs) {
            *pos = log.position;
            retries += log.retries;
            hits += log.samples.iter().filter(|s| s.cache_hit).count() as u64;
            replies += log.samples.len() as u64;
        }
        rounds.push(check_read_logs(&logs, &inputs, &mut report));
    }
    report.note("ops_timed", rounds.iter().map(Vec::len).sum::<usize>());
    report.note(
        "cache_hit_ratio",
        format!("{:.4}", hits as f64 / replies.max(1) as f64),
    );
    report.note("client_retries", retries);
    report_ops(&mut report, Rounds::Alike, &rounds, &counts);
    probes.report(&mut report);

    // The serving session's heap, as the server reports it after the run.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats_reply = client.query("STATS").expect("STATS");
    let heap = common::stats_heap_bytes(stats_reply.body());
    report.check(
        heap.map(|_| ())
            .ok_or_else(|| "STATS carried no memory total".to_string()),
    );
    drop(client);
    handle.shutdown();
    report_space_and_setup(
        &mut report,
        log_bytes,
        graph.len(),
        heap.unwrap_or(0.0),
        graph.visible_count(),
        &setup,
    );
    report
}

// ---------------------------------------------------------------------------
// write_append
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    Delete(u32),
    ZoomOut,
    ZoomIn,
}

impl Mutation {
    pub fn text(self, zoom_module: &str) -> String {
        match self {
            Mutation::Delete(v) => format!("DELETE #{v} PROPAGATE"),
            Mutation::ZoomOut => format!("ZOOM OUT TO {zoom_module}"),
            Mutation::ZoomIn => "ZOOM IN".to_string(),
        }
    }
}

/// The writer's schedule: deletes of distinct victims with a zoom pair
/// after every [`DELETES_PER_ZOOM`].
pub fn mutation_schedule(victims: &[u32]) -> Vec<Mutation> {
    let mut out = Vec::with_capacity(victims.len() + 2 * victims.len() / DELETES_PER_ZOOM);
    for (i, &v) in victims.iter().enumerate() {
        out.push(Mutation::Delete(v));
        if (i + 1) % DELETES_PER_ZOOM == 0 {
            out.push(Mutation::ZoomOut);
            out.push(Mutation::ZoomIn);
        }
    }
    out
}

/// Inputs of the write workload: the reader's list, the resident
/// reference, and the writer's schedule.
pub struct WriteInputs {
    pub list: Vec<Stmt>,
    pub reference: Session,
    pub zoom_module: String,
    pub schedule: Vec<Mutation>,
    pub fragments: Vec<ProvGraph>,
}

pub fn write_inputs(seed: u64, graph: &ProvGraph, log: &Path, victims: usize) -> WriteInputs {
    let rng = Rng::new(seed);
    let zoom_module = format!("Mdealer{}", 1 + rng.fork(3).below(4));
    // Roots a zoom hides would make a concurrent reader's statement
    // fail; keep only statements valid on both sides of the zoom. (A
    // scratch session: zooming appends composite nodes, and the
    // reference's ids must stay aligned with the store under test.)
    let mut scratch = Session::new(graph.clone());
    scratch
        .run_one(&format!("ZOOM OUT TO {zoom_module}"))
        .expect("zoom out on a scratch session");
    let hidden: Vec<bool> = scratch
        .graph()
        .iter()
        .map(|(_, node)| !node.is_visible())
        .collect();
    drop(scratch);
    let cones = gen::sample_cones(graph, &mut rng.fork(1), CONE_SAMPLES);
    let list = gen::statements(
        graph,
        &cones,
        &mut rng.fork(2),
        LIST_LEN,
        Mix::Uniform,
        &|s| s.roots.iter().all(|&r| !hidden[r as usize]),
    );
    let picked = gen::victims(graph, &mut rng.fork(4), victims, &list);
    WriteInputs {
        reference: Session::load(log).expect("load reference"),
        zoom_module,
        schedule: mutation_schedule(&picked),
        fragments: gen::fragments(seed, 32),
        list,
    }
}

/// One acked mutation as the writer connection saw it.
struct WriteSample {
    at: usize,
    latency_us: f64,
    epoch: u64,
    ok: bool,
    body: String,
}

/// The writer connection: walks the schedule from `start_at` until the
/// deadline, never stopping between a `ZOOM OUT` and its `ZOOM IN`.
fn run_writer(
    addr: std::net::SocketAddr,
    schedule: &[Mutation],
    zoom_module: &str,
    start_at: usize,
    until: Instant,
) -> (Vec<WriteSample>, Option<String>) {
    let mut out = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return (out, Some(format!("connect: {e}"))),
    };
    let policy = RetryPolicy::default();
    let mut at = start_at;
    while at < schedule.len() && (Instant::now() < until || schedule[at] == Mutation::ZoomIn) {
        let text = schedule[at].text(zoom_module);
        let start = Instant::now();
        let reply = match client.query_with_retry(&text, &policy) {
            Ok(r) => r,
            Err(e) => return (out, Some(format!("{text}: {e}"))),
        };
        let latency_us = start.elapsed().as_nanos() as f64 / 1e3;
        out.push(WriteSample {
            at,
            latency_us,
            epoch: reply.epoch().unwrap_or(0),
            ok: reply.is_ok(),
            body: match reply {
                Reply::Ok { body, .. } => body,
                Reply::Err(m) => m,
                Reply::Busy { retry_after_ms } => format!("BUSY retry_after_ms={retry_after_ms}"),
            },
        });
        at += 1;
    }
    (out, None)
}

fn write_append(args: &Args) -> Report {
    let mut report = Report::default();
    let scratch = Scratch::new();
    let log = scratch.path("append.lpstk");
    let (graph, session, setup) = set_up_repeatedly(args, &log);
    drop(session);
    note_inputs(&mut report, args, &graph);

    // Enough victims for the fastest plausible writer (the schedule is
    // walked by time, not to its end).
    let victim_budget = ((args.region().as_secs_f64() * 4000.0) as usize).clamp(200, 40_000);
    let WriteInputs {
        list,
        mut reference,
        zoom_module,
        schedule,
        fragments,
    } = write_inputs(
        args.seed,
        &graph,
        &log,
        victim_budget / DELETES_PER_ZOOM * DELETES_PER_ZOOM,
    );
    report.note("statements", list.len());
    report.note("list_fingerprint", gen::list_fingerprint(&list));
    report.note("zoom_module", &zoom_module);
    // Probed on a pristine copy: the served log is being appended to
    // and compacted, and a second append session must never open it.
    let probe_log = scratch.path("append-probe.lpstk");
    write_log(&graph, &probe_log);
    let mut probes = Probes::new(Workload::WriteAppend, &probe_log, &list[0].text);

    // Phase 1, in process: durable fragment commits, a COMPACT after
    // every COMPACT_EVERY of them. The reference ingests the same
    // fragments so ids stay aligned.
    write_log(&graph, &log);
    let mut session = Session::open_append(&log).expect("open log for append");
    let batches = (args.region().as_secs_f64().round() as usize).clamp(1, 60);
    let mut ingest_us = Vec::new();
    let mut compact_ms = Vec::new();
    for i in 0..batches * COMPACT_EVERY as usize {
        let fragment = &fragments[i % fragments.len()];
        let (ids, secs) = timed(|| session.ingest(fragment).expect("ingest fragment"));
        ingest_us.push(secs * 1e6);
        let reference_ids = reference.ingest(fragment).expect("reference ingest");
        report.check(if ids == reference_ids {
            Ok(())
        } else {
            Err(format!(
                "ingest {i}: append ids differ from the resident reference"
            ))
        });
        if (i + 1) % COMPACT_EVERY as usize == 0 {
            let (out, secs) = timed(|| session.run_one("COMPACT").expect("compact"));
            compact_ms.push(secs * 1e3);
            std::hint::black_box(out);
        }
    }
    report.check(if session.promotions() == 0 {
        Ok(())
    } else {
        Err("the append session promoted to resident".into())
    });
    report.note("ingests", ingest_us.len());
    report.note("ingest_p50_us", format!("{:.1}", stats::median(ingest_us)));
    report.note(
        "compact_ms",
        format!(
            "{:.2} (median of {})",
            stats::median(compact_ms.clone()),
            compact_ms.len()
        ),
    );

    // Phase 2, over the wire: connection A mutates, connection B reads.
    let handle = serve(session, CACHE_ENTRIES, COMPACT_EVERY);
    let order = sequences(Workload::WriteAppend, args.seed, list.len()).swap_remove(1);
    let round = args.region() / ROUNDS as u32;
    let mut writes: Vec<WriteSample> = Vec::new();
    let mut reads: Vec<(Sample, Option<String>)> = Vec::new();
    let mut counts: Vec<(usize, f64)> = Vec::new();
    let mut write_rounds = Vec::new();
    let mut read_position = 0usize;
    for r in 0..ROUNDS {
        if r % 2 == 1 {
            probes.probe();
        }
        let start = Instant::now();
        let until = start + round;
        let write_position = writes.last().map_or(0, |w| w.at + 1);
        let (written, read_log) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                run_writer(
                    handle.addr(),
                    &schedule,
                    &zoom_module,
                    write_position,
                    until,
                )
            });
            let reader = scope.spawn(|| {
                wire::run_client(
                    handle.addr(),
                    &list,
                    &order,
                    read_position,
                    Keep::Every(8),
                    until,
                )
            });
            (
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            )
        });
        let secs = start.elapsed().as_secs_f64();
        let (mut written, error) = written;
        write_rounds.push(written.iter().map(|w| w.latency_us).collect::<Vec<f64>>());
        counts.push((written.len() + read_log.samples.len(), secs));
        for e in error.iter().chain(read_log.error.iter()) {
            report.check(Err(format!("transport: {e}")));
        }
        writes.append(&mut written);
        read_position = read_log.position;
        let mut bodies: HashMap<u32, String> = read_log.bodies.into_iter().collect();
        for (i, sample) in read_log.samples.into_iter().enumerate() {
            let body = bodies.remove(&(i as u32));
            reads.push((sample, body));
        }
    }
    report.note("writes_timed", writes.len());
    report.note("reads_timed", reads.len());
    let mut read_us: Vec<f64> = reads.iter().map(|(s, _)| s.latency_us).collect();
    stats::sort(&mut read_us);
    if !read_us.is_empty() {
        report.note(
            "read_p50_us",
            format!("{:.1}", stats::median_sorted(&read_us)),
        );
        report.note(
            "read_tail_us",
            format!("{:.1}", stats::tail_sorted(&read_us).1),
        );
    }
    report_ops(&mut report, Rounds::Uneven, &write_rounds, &counts);
    probes.report(&mut report);

    // What the store holds before shutdown; an acked write must
    // survive it.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let count_before = client
        .query("COUNT(*) MATCH nodes")
        .expect("count")
        .body()
        .to_string();
    drop(client);
    handle.shutdown();
    // Reopen with the tail still in place: recovery must bring back
    // every acked write.
    let mut reopened = Session::open_append(&log).expect("reopen after shutdown");
    let count_after = reference_answer(&reopened, "COUNT(*) MATCH nodes").unwrap_or_default();
    report.check(if count_before == count_after {
        Ok(())
    } else {
        Err(format!(
            "after reopen the store counts {count_after:?}, before shutdown {count_before:?}"
        ))
    });
    // Space is measured on the store at rest: how much tail a run ends
    // with (and whether replaying it faults the whole base in, as a
    // zoom record does) depends on where the clock stopped the writer,
    // so fold the tail and open the sealed result.
    reopened.run_one("COMPACT").expect("final compact");
    drop(reopened);
    let stored = file_len(&log) + file_len(&tail_path(&log));
    let heap = Session::open_append(&log)
        .expect("open the compacted store")
        .heap_bytes() as f64;

    verify_writes(
        &mut report,
        &mut reference,
        &list,
        &schedule,
        &zoom_module,
        &writes,
        &reads,
    );
    report.check(match reference_answer(&reference, "COUNT(*) MATCH nodes") {
        Ok(expected) if fingerprint(&expected) == fingerprint(&count_before) => Ok(()),
        other => Err(format!(
            "final count {count_before:?} but the reference says {other:?}"
        )),
    });

    report_space_and_setup(
        &mut report,
        stored,
        reference.graph().len(),
        heap,
        reference.graph().visible_count(),
        &setup,
    );
    report
}

/// Replay the acked mutations on the resident reference in epoch
/// order. Every write reply must match the reference's, epochs must
/// advance by one per mutation, and every kept read body must equal
/// the reference's answer at the epoch the server stamped on it.
fn verify_writes(
    report: &mut Report,
    reference: &mut Session,
    list: &[Stmt],
    schedule: &[Mutation],
    zoom_module: &str,
    writes: &[WriteSample],
    reads: &[(Sample, Option<String>)],
) {
    // Kept reads, grouped by the epoch they were answered at. Bound the
    // replay's cost: the resident reference pays a full planner set-up
    // per statement, so verify an even sample of at most this many.
    const MAX_VERIFIED_READS: usize = 1200;
    let kept: Vec<(&Sample, &String)> = reads
        .iter()
        .filter_map(|(s, b)| b.as_ref().map(|b| (s, b)))
        .collect();
    let stride = kept.len().div_ceil(MAX_VERIFIED_READS).max(1);
    let mut by_epoch: HashMap<u32, Vec<(&Sample, &String)>> = HashMap::new();
    for (i, (s, b)) in kept.iter().enumerate() {
        if i % stride == 0 || !s.ok {
            by_epoch.entry(s.epoch).or_default().push((s, b));
        }
    }
    let mut verified = 0usize;
    let mut check_reads_at = |epoch: u32, reference: &Session, report: &mut Report| {
        for (sample, body) in by_epoch.remove(&epoch).unwrap_or_default() {
            let stmt = &list[sample.stmt as usize];
            verified += 1;
            report.check(match reference_answer(reference, &stmt.text) {
                Ok(expected) if sample.ok && fingerprint(&expected) == fingerprint(body) => Ok(()),
                _ => Err(format!(
                    "epoch {epoch}: {} answered {:.80}",
                    stmt.text, body
                )),
            });
        }
    };
    check_reads_at(0, reference, report);
    for (i, w) in writes.iter().enumerate() {
        let text = schedule[w.at].text(zoom_module);
        let expected = reference
            .run_one(&text)
            .map(|out| out.to_string())
            .map_err(|e| e.to_string());
        report.check(match expected {
            Ok(expected) if w.ok && expected == w.body && w.epoch == i as u64 + 1 => Ok(()),
            other => Err(format!(
                "{text} acked {:.60} at epoch {} but the reference says {other:.60?} at {}",
                w.body,
                w.epoch,
                i + 1
            )),
        });
        check_reads_at(w.epoch as u32, reference, report);
    }
    // Every read not replayed against the reference must at least have
    // succeeded, and agree with any other read of the same statement
    // at the same epoch.
    let mut raw_at: HashMap<(u32, u32), u64> = HashMap::new();
    for (sample, _) in reads {
        let raw = *raw_at
            .entry((sample.stmt, sample.epoch))
            .or_insert(sample.raw_fnv);
        report.check(if sample.ok && raw == sample.raw_fnv {
            Ok(())
        } else {
            Err(format!(
                "epoch {}: {} failed or changed its answer within one epoch",
                sample.epoch, list[sample.stmt as usize].text
            ))
        });
    }
    report.note("reads_verified_against_reference", verified);
    report.check(if by_epoch.is_empty() {
        Ok(())
    } else {
        Err("a read was stamped with an epoch no write produced".into())
    });
}
