//! The traced pass of one workload: a single client, one statement at
//! a time. Each statement is sent over the wire to the product's
//! server (the round trip and the server's own `time_us` give the
//! transport share), then pushed through the same layers in process —
//! framing, parse, cache, plan, execute, render — with a span around
//! each call, against a twin session on the same backend. Where
//! `run_read_stmt_traced` already yields `plan` / `execute` / operator
//! spans they are nested under the benchmark's span, not re-timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lipstick_core::graph::{GraphTracker, NoTracker};
use lipstick_core::obs::Tracer;
use lipstick_proql::parser::parse_statement;
use lipstick_proql::Session;
use lipstick_serve::cache::CachedResult;
use lipstick_serve::{proto, Client, QueryCache, Reply};

use crate::common::{out_dir, write_log, Scratch};
use crate::dealers_run::Stepper;
use crate::gen::{self, Stmt, L_EXEC};
use crate::io::TimingIo;
use crate::layers::Shared;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder};
use crate::workloads::{self, serve, Args, Mutation, Workload, COMPACT_EVERY};

/// Layers whose share of an operation the traced pass reports.
pub const LAYERS: [&str; 11] = [
    "serve.transport",
    "serve.proto",
    "serve.cache",
    "proql.parse",
    "proql.plan",
    "proql.execute",
    "proql.render",
    "proql.write",
    "storage.io",
    "workflow",
    "core.graph",
];

/// Operations in a traced pass are capped so the span file stays a few
/// megabytes.
const MAX_OPS: usize = 4000;

pub fn run(args: &Args, scratch: &Scratch, shared: &Shared, report: &mut Report) {
    let recorder = Arc::new(Recorder::default());
    let budget = args.region() / 3;
    let pass = match args.workload {
        Workload::TrackDealers => track_dealers(args, &recorder, budget, report),
        Workload::WriteAppend => write_append(args, scratch, shared, &recorder, budget, report),
        w => wire_reads(args, w, shared, &recorder, budget, report),
    };
    let spans = recorder.spans();
    // The make-up of the typical operation: each layer's median self
    // time per operation against the median operation. (Sums would let
    // the few slow operations — cache misses, compactions — speak for
    // all of them.)
    let own = trace::self_time_by_op_and_layer(&spans);
    let n = pass.ops.len();
    let op_p50_us = stats::median(pass.ops.iter().map(|&(_, us)| us).collect());
    let mut attributed = 0.0;
    for layer in LAYERS {
        let per_op: Vec<f64> = pass
            .ops
            .iter()
            .map(|(op, _)| own.get(&(*op, layer)).copied().unwrap_or(0) as f64 / 1e3)
            .collect();
        let share = 100.0 * stats::median(per_op) / op_p50_us;
        attributed += share;
        report.set(&format!("trace.share_pct.{layer}"), share, "%", n);
    }
    report.set("trace.attributed_pct", attributed, "%", n);
    report.set("trace.op_p50_us", op_p50_us, "us", n);
    report.set(
        "trace.reads_per_op",
        pass.reads as f64 / pass.wire_ops.max(1) as f64,
        "count",
        pass.wire_ops,
    );
    report.set(
        "trace.reach_plans_pct",
        100.0 * pass.reach_plans as f64 / n as f64,
        "%",
        n,
    );
    let totals = trace::self_time_by_layer(&spans);
    report.note(
        "self_time_ms_by_layer",
        totals
            .iter()
            .map(|(layer, ns)| format!("{layer}={:.2}", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let path = out_dir().join(format!("trace_{}.json", args.workload.name()));
    trace::write_json(&path, &spans).expect("write trace file");
    report.note("trace_file", path.display());
    report.note("trace_spans", spans.len());
}

#[derive(Default)]
struct Pass {
    /// The operations the shares are taken over — every statement of a
    /// read workload, the mutations of the write workload, the tracked
    /// executions of `track_dealers` — as `(operation id, microseconds
    /// end to end)`.
    ops: Vec<(u32, f64)>,
    /// Backend records decoded, as the replies reported them, over
    /// this many statements sent (reads and mutations alike).
    reads: u64,
    wire_ops: usize,
    /// Operations whose plan was served by the reach index.
    reach_plans: usize,
}

// ---------------------------------------------------------------------------
// track_dealers
// ---------------------------------------------------------------------------

/// Tracked and untracked runs stepped in lockstep: execution `e` with
/// the tracker, then execution `e` without. The tracked span's self
/// time (tracked minus untracked) is the tracker's share.
fn track_dealers(args: &Args, rec: &Recorder, budget: Duration, report: &mut Report) -> Pass {
    let params = gen::dealers_params(L_EXEC, 200, args.seed);
    let mut tracker = GraphTracker::new();
    let mut tracked = Stepper::new(&params, &mut tracker);
    let mut untracked = Stepper::new(&params, &mut NoTracker);
    let deadline = Instant::now() + budget;
    let mut ops = Vec::new();
    for e in 0..L_EXEC as u32 {
        if e > 0 && Instant::now() >= deadline {
            break;
        }
        let start = rec.now_ns();
        let (with, tracked_out) = tracked.step(&mut tracker, true);
        let end = rec.now_ns();
        let (without, untracked_out) = untracked.step(&mut NoTracker, true);
        report.check(if tracked_out == untracked_out {
            Ok(())
        } else {
            Err(format!(
                "execution {e}: tracked and untracked outputs differ"
            ))
        });
        let root = rec.push(
            e,
            None,
            "core.graph",
            "execute_once tracked",
            start,
            end,
            false,
        );
        // The untracked twin ran just after; its duration stands in for
        // the workflow's own share of the tracked execution.
        let twin_ns = ((without * 1e9) as u64).min(end - start);
        rec.push(
            e,
            Some(root),
            "workflow",
            "execute_once untracked",
            start,
            start + twin_ns,
            true,
        );
        ops.push((e, with * 1e6));
    }
    Pass {
        ops,
        ..Pass::default()
    }
}

// ---------------------------------------------------------------------------
// the in-process twin of the server's statement path
// ---------------------------------------------------------------------------

struct Twin {
    session: Session,
    cache: QueryCache,
    epoch: u64,
    buf: Vec<u8>,
}

impl Twin {
    /// One read statement through every layer, a span around each.
    /// Returns the payload a client would have received.
    fn read(&mut self, rec: &Recorder, op: u32, text: &str) -> String {
        let root = rec.open(op, None, "local", "local pipeline");
        let p = Some(root);
        rec.time(op, p, "serve.proto", "classify_first_line", || {
            std::hint::black_box(proto::classify_first_line(text));
        });
        let stmt = rec
            .time(op, p, "proql.parse", "parse_statement", || {
                parse_statement(text)
            })
            .expect("list statement parses");
        let (key, hit) = rec.time(op, p, "serve.cache", "key + get", || {
            let key = stmt.to_string();
            let hit = self.cache.get(&key, self.epoch);
            (key, hit)
        });
        let result = match hit {
            Some(result) => result,
            None => {
                let span = rec.open(op, p, "proql.execute", "run_read_stmt_traced");
                let base = rec.now_ns();
                let tracer = Tracer::new();
                let out = self
                    .session
                    .run_read_stmt_traced(&stmt, Some(&tracer))
                    .expect("list statement runs");
                rec.close(span);
                rec.import(op, span, base, &tracer.finish());
                let result = rec.time(op, p, "proql.render", "to_string + to_json", || {
                    CachedResult {
                        text: out.to_string(),
                        json: out.to_json(),
                    }
                });
                rec.time(op, p, "serve.cache", "insert", || {
                    self.cache.insert(key, self.epoch, result.clone());
                });
                result
            }
        };
        self.frame(rec, op, root, &result.text);
        rec.close(root);
        result.text
    }

    /// One mutation: parse, run under the write path (IO calls nest as
    /// `storage.io` spans), render, frame.
    fn write(&mut self, rec: &Recorder, op: u32, text: &str) -> String {
        let root = rec.open(op, None, "local", "local pipeline");
        let p = Some(root);
        let stmt = rec
            .time(op, p, "proql.parse", "parse_statement", || {
                parse_statement(text)
            })
            .expect("mutation parses");
        let span = rec.open(op, p, "proql.write", "run_stmt");
        rec.set_current(Some((op, span)));
        let out = self.session.run_stmt(&stmt).expect("mutation applies");
        rec.set_current(None);
        rec.close(span);
        self.epoch += 1;
        let payload = rec.time(op, p, "proql.render", "to_string + to_json", || {
            std::hint::black_box(out.to_json());
            out.to_string()
        });
        self.frame(rec, op, root, &payload);
        rec.close(root);
        payload
    }

    /// `COMPACT`, as the server's batch leader issues it after every
    /// `compact_every` mutations. Refused while a module is zoomed out.
    fn compact(&mut self, rec: &Recorder, op: u32) -> bool {
        let span = rec.open(op, None, "proql.write", "COMPACT");
        rec.set_current(Some((op, span)));
        let done = self.session.run_one("COMPACT").is_ok();
        rec.set_current(None);
        rec.close(span);
        done
    }

    fn frame(&mut self, rec: &Recorder, op: u32, parent: u32, payload: &str) {
        rec.time(
            op,
            Some(parent),
            "serve.proto",
            "write_ok + read_reply",
            || {
                self.buf.clear();
                proto::write_ok(&mut self.buf, payload, false, self.epoch, 0, 0).expect("frame");
                std::hint::black_box(proto::read_reply(&mut self.buf.as_slice()).expect("parse"));
            },
        );
    }
}

/// Send one statement over the wire; record the round trip as a
/// `serve.transport` span with the server's reported `time_us` as a
/// derived child, so transport's self time is what the server did not
/// account for (socket, framing, worker hand-off).
fn over_the_wire(rec: &Recorder, client: &mut Client, op: u32, text: &str) -> (Reply, f64) {
    let start = rec.now_ns();
    let reply = client.query(text).expect("wire query");
    let end = rec.now_ns();
    let root = rec.push(op, None, "serve.transport", "round trip", start, end, false);
    let server_ns = (reply.time_us().unwrap_or(0) * 1000).min(end - start);
    rec.push(
        op,
        Some(root),
        "server.reported",
        "time_us trailer",
        end - server_ns,
        end,
        true,
    );
    (reply, (end - start) as f64 / 1e3)
}

fn is_reach_plan(session: &Session, text: &str) -> bool {
    session
        .explain(text)
        .is_ok_and(|plan| plan.contains("reach-index"))
}

/// One operation as the wire phase saw it, kept for the twin's replay.
struct WireOp {
    text: String,
    mutation: bool,
    /// The reply's payload; the twin must produce the same bytes.
    body: String,
}

fn wire_op(
    rec: &Recorder,
    client: &mut Client,
    ops: &mut Vec<WireOp>,
    text: &str,
    mutation: bool,
) -> (f64, u64) {
    let (reply, us) = over_the_wire(rec, client, ops.len() as u32, text);
    let reads = reply.reads().unwrap_or(0);
    ops.push(WireOp {
        text: text.to_string(),
        mutation,
        body: match reply {
            Reply::Ok { body, .. } => body,
            other => format!("{other:?}"),
        },
    });
    (us, reads)
}

/// The twin's phase: the same operations, in the same order, through
/// the layers in process. Run after the wire phase, not interleaved
/// with it — two append sessions fsyncing in turn pay for each other's
/// dirty pages, which doubled the served write's latency when they
/// alternated.
fn replay_on_twin(rec: &Recorder, twin: &mut Twin, ops: &[WireOp], report: &mut Report) {
    let mut since_compact = 0u64;
    for (op, wire) in ops.iter().enumerate() {
        let op = op as u32;
        let local = if wire.mutation {
            let payload = twin.write(rec, op, &wire.text);
            since_compact += 1;
            if since_compact >= COMPACT_EVERY && twin.compact(rec, op) {
                since_compact = 0;
            }
            payload
        } else {
            twin.read(rec, op, &wire.text)
        };
        report.check(if local == wire.body {
            Ok(())
        } else {
            Err(format!(
                "{}: the wire and the in-process twin disagree",
                wire.text
            ))
        });
    }
}

// ---------------------------------------------------------------------------
// the four read workloads
// ---------------------------------------------------------------------------

fn wire_reads(
    args: &Args,
    w: Workload,
    shared: &Shared,
    rec: &Recorder,
    budget: Duration,
    report: &mut Report,
) -> Pass {
    let (graph, log) = if w.num_exec() == L_EXEC {
        (&shared.graph_l, &shared.log_l)
    } else {
        (&shared.graph_s, &shared.log_s)
    };
    let list = workloads::read_list(graph, args.seed, w.mix());
    let sequence = workloads::sequences(w, args.seed, list.len()).swap_remove(0);
    let handle = serve(w.backend().open(log), w.cache_entries(), 0);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut pass = Pass::default();
    let mut ops = Vec::new();
    let deadline = Instant::now() + budget / 2;
    for &idx in sequence.iter().cycle().take(MAX_OPS) {
        if !ops.is_empty() && Instant::now() >= deadline {
            break;
        }
        let (us, reads) = wire_op(rec, &mut client, &mut ops, &list[idx as usize].text, false);
        pass.ops.push((ops.len() as u32 - 1, us));
        pass.reads += reads;
    }
    drop(client);
    handle.shutdown();
    pass.wire_ops = ops.len();
    let mut twin = Twin {
        session: w.backend().open(log),
        cache: QueryCache::new(w.cache_entries()),
        epoch: 0,
        buf: Vec::new(),
    };
    let reach: Vec<bool> = list
        .iter()
        .map(|s| is_reach_plan(&twin.session, &s.text))
        .collect();
    pass.reach_plans = sequence
        .iter()
        .cycle()
        .take(ops.len())
        .filter(|&&idx| reach[idx as usize])
        .count();
    replay_on_twin(rec, &mut twin, &ops, report);
    pass
}

// ---------------------------------------------------------------------------
// write_append
// ---------------------------------------------------------------------------

fn write_append(
    args: &Args,
    scratch: &Scratch,
    shared: &Shared,
    rec: &Arc<Recorder>,
    budget: Duration,
    report: &mut Report,
) -> Pass {
    let served_log = scratch.path("traced-served.lpstk");
    let twin_log = scratch.path("traced-twin.lpstk");
    write_log(&shared.graph_l, &served_log);
    write_log(&shared.graph_l, &twin_log);
    let inputs = workloads::write_inputs(args.seed, &shared.graph_l, &served_log, MAX_OPS);
    let list: &[Stmt] = &inputs.list;
    let order = workloads::sequences(Workload::WriteAppend, args.seed, list.len()).swap_remove(1);
    let handle = serve(
        Session::open_append(&served_log).expect("open append"),
        Workload::WriteAppend.cache_entries(),
        COMPACT_EVERY,
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut pass = Pass::default();
    // One connection alternates: a mutation, then four reads.
    const READS_PER_WRITE: usize = 4;
    let deadline = Instant::now() + budget / 2;
    let mut ops = Vec::new();
    let mut reads_done = 0usize;
    for mutation in &inputs.schedule {
        // Never stop between a ZOOM OUT and its ZOOM IN.
        let may_stop = *mutation != Mutation::ZoomIn && !ops.is_empty();
        if may_stop && (Instant::now() >= deadline || ops.len() >= MAX_OPS) {
            break;
        }
        let text = mutation.text(&inputs.zoom_module);
        let (us, _) = wire_op(rec, &mut client, &mut ops, &text, true);
        pass.ops.push((ops.len() as u32 - 1, us));
        if *mutation == Mutation::ZoomOut {
            continue;
        }
        for _ in 0..READS_PER_WRITE {
            let text = &list[order[reads_done % order.len()] as usize].text;
            reads_done += 1;
            pass.reads += wire_op(rec, &mut client, &mut ops, text, false).1;
        }
    }
    drop(client);
    handle.shutdown();
    pass.wire_ops = ops.len();
    let io = TimingIo::new(Some(rec.clone()));
    let mut twin = Twin {
        session: Session::open_append_with_io(&twin_log, io).expect("open append twin"),
        cache: QueryCache::new(Workload::WriteAppend.cache_entries()),
        epoch: 0,
        buf: Vec::new(),
    };
    replay_on_twin(rec, &mut twin, &ops, report);
    report.check(if twin.session.promotions() == 0 {
        Ok(())
    } else {
        Err("the append twin promoted to resident".into())
    });
    pass
}
