//! Torn-write/crash-recovery property test for the WAL tail segment:
//! for a random mutation script, truncating the on-disk tail at EVERY
//! byte offset must recover a clean prefix of the committed records —
//! the store after recovery equals the store after the first k commits
//! for some k — and must never panic or refuse to open.

mod signature;

use std::fs;
use std::path::{Path, PathBuf};

use lipstick_core::graph::GraphTracker;
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::plan_zoom_out;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, ProvGraph, Tracker};
use lipstick_storage::{write_graph_v2, AppendLog};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use signature::store_signature;

const MODULES: [&str; 3] = ["Mload", "Mjoin", "Magg"];

/// Small multi-module workflow graph: a run of each module chained off
/// shared base tuples, so deletes propagate across modules and zooms
/// have real inputs/outputs.
fn workflow_graph(rng: &mut StdRng, execution: u32) -> ProvGraph {
    let mut t = GraphTracker::new();
    let mut feed: Vec<_> = (0..2 + rng.below(3))
        .map(|i| t.base(&format!("t{execution}_{i}")))
        .collect();
    for (mi, module) in MODULES.iter().enumerate() {
        if rng.below(4) == 0 {
            continue; // this run skips the module
        }
        t.begin_invocation(module, execution);
        let tuple = if feed.len() > 1 {
            t.plus(&feed.clone())
        } else {
            feed[0]
        };
        let input = t.module_input(tuple);
        let mut x = input;
        for _ in 0..rng.below(2 + mi) {
            x = t.times(&[x]);
        }
        let out = t.module_output(x, &[]);
        t.end_invocation();
        feed.push(out);
    }
    t.plus(&feed.clone());
    t.finish()
}

/// Commit one random mutation; returns false if the roll produced a
/// no-op (nothing visible to delete, no module to zoom, …).
fn random_mutation(log: &mut AppendLog, rng: &mut StdRng, execution: &mut u32) -> bool {
    match rng.below(5) {
        0 | 1 => {
            *execution += 1;
            let fragment = workflow_graph(rng, *execution);
            log.commit_fragment(&fragment).unwrap();
            true
        }
        2 => {
            let visible: Vec<NodeId> = (0..log.node_count())
                .map(|i| NodeId(i as u32))
                .filter(|&id| log.is_visible(id))
                .collect();
            if visible.is_empty() {
                return false;
            }
            let root = visible[rng.below(visible.len())];
            let cone = compute_deletion(&*log, root).unwrap().deleted;
            log.commit_tombstones(&cone).unwrap();
            true
        }
        3 => {
            let zoomed: Vec<String> = log
                .zoomed_out_modules()
                .into_iter()
                .map(String::from)
                .collect();
            let candidates: Vec<&str> = MODULES
                .iter()
                .copied()
                .filter(|m| !zoomed.iter().any(|z| z == m))
                .collect();
            if candidates.is_empty() {
                return false;
            }
            let module = candidates[rng.below(candidates.len())];
            // Planning fails if the module never ran (UnknownModule);
            // that roll is a no-op.
            match plan_zoom_out(&*log, &[module], &zoomed, log.stash_count()) {
                Ok(plans) => {
                    log.commit_zoom_out(plans).unwrap();
                    true
                }
                Err(_) => false,
            }
        }
        _ => {
            let zoomed: Vec<String> = log
                .zoomed_out_modules()
                .into_iter()
                .map(String::from)
                .collect();
            if zoomed.is_empty() {
                return false;
            }
            let module = zoomed[rng.below(zoomed.len())].clone();
            log.commit_zoom_in(&[module]).unwrap();
            true
        }
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lipstick-tail-torn-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tail_path_of(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_owned();
    os.push(".tail");
    PathBuf::from(os)
}

proptest! {
    #[test]
    fn every_byte_truncation_recovers_a_record_prefix(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir();
        let base_path = dir.join(format!("graph-{seed:016x}.lpstk"));
        let mut execution = 0u32;
        write_graph_v2(&workflow_graph(&mut rng, execution), &base_path).unwrap();

        // Run a random mutation script, recording the visible-graph
        // signature after every committed record.
        let mut log = AppendLog::open(&base_path).unwrap();
        let mut sigs = vec![store_signature(&log)];
        let mut committed = 0usize;
        let steps = 3 + rng.below(3);
        for _ in 0..steps {
            if random_mutation(&mut log, &mut rng, &mut execution) {
                committed += 1;
                sigs.push(store_signature(&log));
            }
        }
        prop_assert_eq!(log.tail_records(), committed);
        drop(log);

        let tail_bytes = fs::read(tail_path_of(&base_path)).unwrap();

        // Crash-simulate at every byte offset: copy base + truncated
        // tail into a scratch slot, recover, and check the result is
        // exactly the state after some prefix of the commits.
        let cut_base = dir.join(format!("cut-{seed:016x}.lpstk"));
        let cut_tail = tail_path_of(&cut_base);
        fs::copy(&base_path, &cut_base).unwrap();
        let mut prev_records = 0usize;
        for cut in 0..=tail_bytes.len() {
            fs::write(&cut_tail, &tail_bytes[..cut]).unwrap();
            let recovered = AppendLog::open(&cut_base).unwrap();
            let k = recovered.tail_records();
            prop_assert!(k <= committed, "recovered {} of {} records", k, committed);
            prop_assert!(k >= prev_records, "longer prefix lost records");
            prop_assert_eq!(
                &store_signature(&recovered),
                &sigs[k],
                "cut at byte {} recovered {} records but a different graph",
                cut,
                k
            );
            prev_records = k;
        }
        prop_assert_eq!(prev_records, committed, "full tail must recover everything");

        // Recovery truncates the torn suffix in place: appending after
        // a mid-file crash must produce a valid tail again.
        let mid = tail_bytes.len() / 2;
        fs::write(&cut_tail, &tail_bytes[..mid]).unwrap();
        let mut recovered = AppendLog::open(&cut_base).unwrap();
        let k = recovered.tail_records();
        execution += 1;
        recovered.commit_fragment(&workflow_graph(&mut rng, execution)).unwrap();
        let resumed_sig = store_signature(&recovered);
        drop(recovered);
        let reopened = AppendLog::open(&cut_base).unwrap();
        prop_assert_eq!(reopened.tail_records(), k + 1);
        prop_assert_eq!(&store_signature(&reopened), &resumed_sig);

        fs::remove_file(&base_path).ok();
        fs::remove_file(tail_path_of(&base_path)).ok();
        fs::remove_file(&cut_base).ok();
        fs::remove_file(&cut_tail).ok();
    }
}
