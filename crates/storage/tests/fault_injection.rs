//! Crash/error-injection harness for the storage IO seam.
//!
//! A scripted append/COMPACT workload runs over [`FaultIo`]'s simulated
//! disk. A clean pass counts every IO call the workload performs; then
//! every op index is replayed twice — once failing that call with an
//! errno, once crashing the disk at it — asserting, at every single
//! failure point:
//!
//! - the errored mutation returns `Err` without poisoning the in-memory
//!   session (its visible-graph signature is unchanged, and retrying
//!   the same step succeeds and converges with the clean run);
//! - after a crash, reopen always succeeds and the recovered store
//!   matches the state after the last *acknowledged* commit — a
//!   committed prefix, never a torn or mixed state;
//! - `records_read` stays a coherent, monotonic gauge and the sealed
//!   base re-verifies.
//!
//! A dedicated test drives the crash clock through COMPACT's own IO
//! steps (temp write, sync, rename, tail unlink) proving the reopened
//! store equals the pre- or post-compaction state, never a hybrid.
//! COMPACT's temp image is `<log>.compact.tmp`: an injected *error*
//! never leaves one behind (the error path unlinks it), a *crash* may,
//! and the next COMPACT's truncating write replaces it. A
//! final test runs ProQL sessions (via the shared `testgen` script
//! hook) over the simulated disk, differential-checked against a
//! resident session.
//!
//! `FAULT_POINTS=<n>` caps how many op indices each enumeration test
//! replays (CI pins a budget); unset, every op is exercised.

mod signature;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lipstick_core::graph::GraphTracker;
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::plan_zoom_out;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, ProvGraph, Tracker};
use lipstick_proql::{testgen, ProqlError, QueryOutput, Session};
use lipstick_storage::{write_graph_v2_io, AppendLog, FaultIo, FaultKind, StorageIo};
use rand::{rngs::StdRng, SeedableRng};
use signature::{store_signature, StoreSignature};

const MODULES: [&str; 3] = ["Mload", "Mjoin", "Magg"];

/// Deterministic seed workflow: one run of each module chained off
/// shared base tuples.
fn seed_graph() -> ProvGraph {
    let mut t = GraphTracker::new();
    let mut feed: Vec<_> = (0..3).map(|i| t.base(&format!("t0_{i}"))).collect();
    for module in MODULES {
        t.begin_invocation(module, 0);
        let tuple = t.plus(&feed.clone());
        let input = t.module_input(tuple);
        let x = t.times(&[input]);
        let out = t.module_output(x, &[]);
        t.end_invocation();
        feed.push(out);
    }
    t.plus(&feed.clone());
    t.finish()
}

/// Deterministic appended fragment for execution `n`.
fn fragment(n: u32) -> ProvGraph {
    let mut t = GraphTracker::new();
    let a = t.base(&format!("f{n}_a"));
    let b = t.base(&format!("f{n}_b"));
    t.begin_invocation("Mjoin", n);
    let ab = t.times(&[a, b]);
    let i = t.module_input(ab);
    let o = t.module_output(i, &[]);
    t.end_invocation();
    t.plus(&[o]);
    t.finish()
}

const STEPS: usize = 9;

/// One step of the scripted workload. Deterministic given the store's
/// state, so a replay that keeps state converged with the clean run
/// (by retrying failed steps) issues the identical IO sequence.
fn script_step(log: &mut AppendLog, step: usize) -> lipstick_storage::Result<()> {
    match step {
        0 => log.commit_fragment(&fragment(1)).map(|_| ()),
        1 | 7 => {
            let root = (0..log.node_count() as u32)
                .map(NodeId)
                .filter(|&id| log.is_visible(id))
                .nth(4)
                .expect("workload graph has at least five visible nodes");
            let cone = compute_deletion(&*log, root)
                .expect("deletion cone over an in-memory overlay cannot fault")
                .deleted;
            log.commit_tombstones(&cone)
        }
        2 => {
            // Planning is pure in-memory; only the commit does IO, so a
            // retried step re-plans against the identical state.
            let plans = plan_zoom_out(&*log, &["Mjoin"], &[], log.stash_count())
                .expect("Mjoin ran in the seed workflow");
            log.commit_zoom_out(plans).map(|_| ())
        }
        3 => log.commit_fragment(&fragment(2)).map(|_| ()),
        4 => log.commit_zoom_in(&["Mjoin".to_string()]).map(|_| ()),
        5 | 8 => log.compact(),
        6 => log.commit_fragment(&fragment(3)).map(|_| ()),
        _ => unreachable!("script has {STEPS} steps"),
    }
}

/// Write the sealed seed segment onto a fresh simulated disk and sync
/// it, returning the disk and the ops consumed by seeding (the fault
/// clock starts after them).
fn seeded_disk(path: &Path) -> (FaultIo, u64) {
    let io = FaultIo::new();
    write_graph_v2_io(&seed_graph(), path, &io).expect("seeding a fresh simulated disk");
    io.sync(path).expect("seeding sync");
    let ops = io.ops();
    (io, ops)
}

fn log_path() -> PathBuf {
    // Purely a key into the simulated disk — nothing in this harness
    // touches the real filesystem.
    PathBuf::from("/simulated/graph.lpstk")
}

/// COMPACT temp images currently on the simulated disk.
fn compact_temps(io: &FaultIo) -> Vec<PathBuf> {
    let is_temp = |p: &PathBuf| p.to_string_lossy().ends_with(".compact.tmp");
    io.paths().into_iter().filter(is_temp).collect()
}

fn fault_budget(total: u64) -> usize {
    std::env::var("FAULT_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(total) as usize
}

/// Clean pass: run the script, record the signature after every step
/// and the total IO ops the workload (open included) performs.
fn clean_run() -> (Vec<StoreSignature>, u64) {
    let path = log_path();
    let (io, ops0) = seeded_disk(&path);
    let mut log = AppendLog::open_with_io(&path, Arc::new(io.clone())).expect("clean open");
    let mut sigs = vec![store_signature(&log)];
    let mut reads = log.records_read();
    for step in 0..STEPS {
        script_step(&mut log, step).expect("clean run has no faults");
        sigs.push(store_signature(&log));
        // The decode gauge never runs backwards, across COMPACT included.
        assert!(log.records_read() >= reads, "records_read regressed");
        reads = log.records_read();
    }
    (sigs, io.ops() - ops0)
}

#[test]
fn every_io_error_point_leaves_the_store_usable_and_convergent() {
    let (clean_sigs, total_ops) = clean_run();
    assert!(total_ops > 30, "script should exercise many IO sites");

    for k in (0..total_ops).take(fault_budget(total_ops)) {
        // Alternate ENOSPC and EIO so both errnos surface.
        let errno = if k % 2 == 0 { 28 } else { 5 };
        let path = log_path();
        let (io, ops0) = seeded_disk(&path);
        io.set_fault(ops0 + k, FaultKind::Errno(errno));
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());

        // Open may absorb the fault; it must then succeed on retry.
        let mut log = match AppendLog::open_with_io(&path, shared.clone()) {
            Ok(log) => log,
            Err(_) => AppendLog::open_with_io(&path, shared.clone())
                .unwrap_or_else(|e| panic!("op {k}: reopen after open error failed: {e}")),
        };
        for step in 0..STEPS {
            if script_step(&mut log, step).is_err() {
                // Session not poisoned: the failed step changed nothing.
                assert_eq!(
                    store_signature(&log),
                    clean_sigs[step],
                    "op {k}: failed step {step} mutated the in-memory session"
                );
                // Nor did it litter: a COMPACT that errors anywhere
                // between its temp write and its rename takes the temp
                // image with it.
                assert_eq!(
                    compact_temps(&io),
                    Vec::<PathBuf>::new(),
                    "op {k}: failed step {step} left a COMPACT temp file"
                );
                // The fault is one-shot; the retry must land and bring
                // the run back in lockstep with the clean one.
                script_step(&mut log, step)
                    .unwrap_or_else(|e| panic!("op {k}: retry of step {step} failed: {e}"));
            }
            assert_eq!(
                store_signature(&log),
                clean_sigs[step + 1],
                "op {k}: step {step} diverged from the clean run"
            );
        }
        drop(log);
        assert_eq!(compact_temps(&io), Vec::<PathBuf>::new(), "op {k}");

        // Whatever happened, a fresh open recovers the full final state.
        let reopened = AppendLog::open_with_io(&path, shared)
            .unwrap_or_else(|e| panic!("op {k}: final reopen failed: {e}"));
        assert_eq!(
            store_signature(&reopened),
            clean_sigs[STEPS],
            "op {k}: reopened store lost acknowledged writes"
        );
        reopened
            .verify_all()
            .unwrap_or_else(|e| panic!("op {k}: sealed base failed verification: {e}"));
        let r1 = reopened.records_read();
        let _ = store_signature(&reopened);
        assert!(
            reopened.records_read() >= r1,
            "op {k}: records_read gauge ran backwards"
        );
        assert!(
            !reopened.memory_breakdown().is_empty(),
            "op {k}: heap gauge breakdown vanished"
        );
    }
}

#[test]
fn every_crash_point_recovers_exactly_the_acked_prefix() {
    let (_, total_ops) = clean_run();

    for k in (0..total_ops).take(fault_budget(total_ops)) {
        let path = log_path();
        let (io, ops0) = seeded_disk(&path);
        io.set_fault(ops0 + k, FaultKind::Crash);
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());

        // Run until the crash surfaces, recording each acked signature.
        // If the crash fires inside open() itself, the acked state is
        // the seed graph.
        let mut acked = store_signature(&seed_graph());
        if let Ok(mut log) = AppendLog::open_with_io(&path, shared.clone()) {
            acked = store_signature(&log);
            for step in 0..STEPS {
                match script_step(&mut log, step) {
                    Ok(()) => acked = store_signature(&log),
                    Err(_) => break,
                }
            }
        }

        io.thaw();
        let recovered = AppendLog::open_with_io(&path, shared)
            .unwrap_or_else(|e| panic!("crash at op {k}: reopen failed: {e}"));
        assert_eq!(
            store_signature(&recovered),
            acked,
            "crash at op {k}: recovered state is not the acked prefix"
        );
        recovered
            .verify_all()
            .unwrap_or_else(|e| panic!("crash at op {k}: base verification failed: {e}"));
    }
}

#[test]
fn crash_during_compact_is_all_or_nothing() {
    let path = log_path();

    // Clean run up to (not including) the first COMPACT, then measure
    // the op window COMPACT occupies and the base bytes on either side.
    let (io, _) = seeded_disk(&path);
    let mut log = AppendLog::open_with_io(&path, Arc::new(io.clone())).expect("clean open");
    for step in 0..5 {
        script_step(&mut log, step).expect("clean prefix");
    }
    let sig = store_signature(&log);
    let pre_tail_records = log.tail_records();
    assert!(pre_tail_records > 0, "compact must have a tail to fold");
    let pre_base = io.contents(&path).expect("base exists");
    let compact_start = io.ops();
    log.compact().expect("clean compact");
    let compact_ops = io.ops() - compact_start;
    let post_base = io.contents(&path).expect("base exists");
    assert_ne!(pre_base, post_base, "compact rewrote the base");
    assert!(
        compact_ops >= 4,
        "compact performs at least temp-write, sync, rename, unlink"
    );
    drop(log);

    // Crash the disk at every op inside the COMPACT window: temp write,
    // temp sync, temp reopen/len, rename, tail unlink.
    for k in 0..compact_ops {
        let (io, _) = seeded_disk(&path);
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());
        let mut log = AppendLog::open_with_io(&path, shared.clone()).expect("open");
        for step in 0..5 {
            script_step(&mut log, step).expect("prefix before compact");
        }
        io.set_fault(io.ops() + k, FaultKind::Crash);
        let result = log.compact();
        drop(log);
        io.thaw();

        let base_now = io
            .contents(&path)
            .unwrap_or_else(|| panic!("compact crash at op {k}: base vanished"));
        let mut recovered = AppendLog::open_with_io(&path, shared)
            .unwrap_or_else(|e| panic!("compact crash at op {k}: reopen failed: {e}"));
        assert_eq!(
            store_signature(&recovered),
            sig,
            "compact crash at op {k}: visible graph changed"
        );
        let pre_state = base_now == pre_base && recovered.tail_records() == pre_tail_records;
        let post_state = base_now == post_base && recovered.tail_records() == 0;
        assert!(
            pre_state || post_state,
            "compact crash at op {k}: hybrid state (result={result:?}, \
             tail_records={}, base_matches_pre={}, base_matches_post={})",
            recovered.tail_records(),
            base_now == pre_base,
            base_now == post_base,
        );

        // A crash between the temp write and the rename strands the
        // temp image — under the log's own name plus a suffix, never a
        // name another log in the directory could share — and the next
        // COMPACT overwrites and renames it away.
        let temp = PathBuf::from(format!("{}.compact.tmp", path.display()));
        let stranded = compact_temps(&io);
        assert!(
            stranded.is_empty() || stranded == [temp],
            "compact crash at op {k}: unexpected temp files {stranded:?}"
        );
        if recovered.tail_records() > 0 {
            recovered.compact().expect("compact after recovery");
            assert_eq!(io.contents(&path).expect("base exists"), post_base);
        }
        assert_eq!(compact_temps(&io), Vec::<PathBuf>::new());
    }
}

/// Mask the backend-dependent `(visited N)` work figure, as the
/// differential suite does: resident and paged scans count different
/// (both legitimate) costs of the same answer.
fn mask_visited(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find("(visited ") {
        let tail = &rest[at + "(visited ".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 && tail[digits..].starts_with(')') {
            out.push_str(&rest[..at]);
            out.push_str("(visited _)");
            rest = &tail[digits + 1..];
        } else {
            out.push_str(&rest[..at + "(visited ".len()]);
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

fn answer(r: Result<QueryOutput, ProqlError>) -> Result<String, String> {
    match r {
        Ok(out) => Ok(mask_visited(&out.to_string())),
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn proql_session_survives_io_errors_differentially_vs_resident() {
    let path = log_path();
    let graph = seed_graph();
    let vocab = testgen::Vocab::from_graph(&graph);

    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64((0xfa << 32) | seed);
        let script = testgen::mutation_script(&vocab, &mut rng, 8);

        let (io, _) = seeded_disk(&path);
        let shared: Arc<dyn StorageIo> = Arc::new(io.clone());
        let mut append =
            Session::open_append_with_io(&path, shared.clone()).expect("open append session");
        let mut resident = Session::new(graph.clone());
        // One injected errno per run, position varying with the seed
        // (open-time faults are covered by the storage-level tests).
        io.set_fault(io.ops() + 1 + seed * 4, FaultKind::Errno(5));

        for stmt in &script {
            let mut out = append.run_stmt(stmt);
            if matches!(&out, Err(ProqlError::Storage(_))) {
                // The injected IO error: the statement was refused, the
                // session stays usable, and the one-shot fault lets the
                // retry through.
                out = append.run_stmt(stmt);
                assert!(
                    !matches!(&out, Err(ProqlError::Storage(_))),
                    "retry after injected IO error failed: {out:?}"
                );
            }
            let expect = resident.run_stmt(stmt);
            assert_eq!(
                answer(out),
                answer(expect),
                "append and resident sessions diverged"
            );
        }
        // The fault may not have fired if the script erred out early
        // semantically; it must not leak into the reopen below.
        io.clear_fault();

        // Read statements agree after the faulted mutation script...
        let mut read_rng = StdRng::seed_from_u64(0xbeef ^ seed);
        for _ in 0..6 {
            let stmt = testgen::statement(&vocab, &mut read_rng);
            assert_eq!(
                answer(append.run_read_stmt(&stmt)),
                answer(resident.run_read_stmt(&stmt)),
                "read divergence after faulted script"
            );
        }

        // ...and every acked mutation survives a reopen.
        let tail_records = append.append_log().expect("append backend").tail_records();
        drop(append);
        let reopened = Session::open_append_with_io(&path, shared).expect("reopen");
        assert_eq!(
            reopened
                .append_log()
                .expect("append backend")
                .tail_records(),
            tail_records,
            "seed {seed}: reopen lost acknowledged records"
        );
        let mut read_rng = StdRng::seed_from_u64(0xbeef ^ seed);
        for _ in 0..6 {
            let stmt = testgen::statement(&vocab, &mut read_rng);
            assert_eq!(
                answer(reopened.run_read_stmt(&stmt)),
                answer(resident.run_read_stmt(&stmt)),
                "seed {seed}: reopened session diverged"
            );
        }
    }
}
