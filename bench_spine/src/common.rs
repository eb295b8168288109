//! Shared plumbing: the scratch directory, timing helpers, payload
//! fingerprints, and the process's own memory high-water mark.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lipstick_core::obs::fnv1a64;
use lipstick_core::ProvGraph;
use lipstick_proql::Session;

use crate::stats;

/// `bench_spine/out`, where traces and run-sets land (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under `bench_spine/out`, removed on
/// drop. The benchmark's contract confines its files to the checkout,
/// so logs and tails live here and not under the OS temp directory.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> Scratch {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The `.tail` sidecar of an append-backed log.
pub fn tail_path(log: &Path) -> PathBuf {
    let mut tail = log.as_os_str().to_os_string();
    tail.push(".tail");
    PathBuf::from(tail)
}

/// Write `graph` as a sealed v2 log with no stale tail beside it (a
/// byte-identical regenerated base would otherwise re-bind an old one).
pub fn write_log(graph: &ProvGraph, path: &Path) -> u64 {
    lipstick_storage::write_graph_v2(graph, path).expect("write v2 log");
    let _ = std::fs::remove_file(tail_path(path));
    file_len(path)
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Seconds elapsed while running `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `reps` timings of `f`, in seconds, unsorted.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_secs<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    stats::median(time_reps(reps, f))
}

/// Blank the `(visited N)` cost figure: it depends on the backend
/// (index lookup vs BFS vs postings scan), not on the answer.
pub fn mask_visited(s: &str) -> String {
    const KEY: &str = "(visited ";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(KEY) {
        let tail = &rest[at + KEY.len()..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && tail[digits..].starts_with(')') {
            out.push_str(&rest[..at]);
            out.push_str("(visited _)");
            rest = &tail[digits + 1..];
        } else {
            out.push_str(&rest[..at + KEY.len()]);
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

/// Fingerprint of an answer as every backend must give it.
pub fn fingerprint(payload: &str) -> u64 {
    fnv1a64(mask_visited(payload).as_bytes())
}

/// The reference answer to a read statement: the payload a wire client
/// would receive, or the flattened error line.
pub fn reference_answer(session: &Session, statement: &str) -> Result<String, String> {
    session
        .run_read(statement)
        .map(|out| out.to_string())
        .map_err(|e| e.to_string().replace('\n', "; "))
}

/// This process's resident-set high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `memory total=<bytes>` out of a `STATS` payload — the serving
/// session's `heap_bytes()` as the server itself reports it.
pub fn stats_heap_bytes(stats_payload: &str) -> Option<f64> {
    stats_payload.lines().find_map(|l| {
        let rest = l.trim().strip_prefix("memory total=")?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_only_the_visited_figure() {
        assert_eq!(
            mask_visited("3 nodes (visited 17):\n  N1 (visited x) (visited 9)"),
            "3 nodes (visited _):\n  N1 (visited x) (visited _)"
        );
        assert_eq!(
            fingerprint("2 nodes (visited 2):"),
            fingerprint("2 nodes (visited 99):")
        );
        assert_ne!(
            fingerprint("2 nodes (visited 2):"),
            fingerprint("3 nodes (visited 2):")
        );
    }

    #[test]
    fn parses_stats_total() {
        let payload =
            "x\n  memory graph.labels=8260\n  memory total=156375260 (149.1 MiB)\nserver: y";
        assert_eq!(stats_heap_bytes(payload), Some(156375260.0));
        assert_eq!(stats_heap_bytes("nothing"), None);
    }
}
