//! The storage IO seam: every file operation this crate performs —
//! opening and reading logs, appending tail frames, fsyncing, the
//! temp-write/sync/rename/unlink dance of `COMPACT` — routes through
//! the [`StorageIo`] trait. Production uses the [`StdIo`] passthrough
//! (the [`default_io`] singleton); tests swap in [`FaultIo`], a
//! deterministic simulated disk that can fail the Nth IO call with a
//! chosen errno, truncate a write short, or "crash" — drop every
//! un-synced byte and freeze.
//!
//! ## Durability model
//!
//! [`StorageIo`] commits the crate to an explicit sync discipline:
//! `append` and `create` put bytes in the (simulated or real) page
//! cache, and only `sync` makes them crash-durable. `rename` and
//! `unlink` are modeled as atomic and immediately durable — the
//! guarantee journaling filesystems give for metadata — which is
//! exactly why COMPACT must `sync` its temp segment *before* the
//! rename: renaming an unsynced file and then crashing leaves a
//! truncated base, and [`FaultIo`]'s crash simulation reproduces that
//! outcome so the fault-injection harness can prove the sync is there.
//!
//! Every [`StdIo`] error except `NotFound` (an expected outcome probed
//! by recovery paths) increments `lipstick_storage_io_errors_total`.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use lipstick_core::obs::{self, Counter};

/// Every file operation the storage layer performs. Object-safe and
/// path-based: each call is one injectable IO step, so a fault harness
/// can enumerate failure points by counting calls.
pub trait StorageIo: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Current file length in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Append bytes to the end of a file, creating it if absent. Not
    /// durable until [`sync`](StorageIo::sync).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Make a file's contents crash-durable (fsync).
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Truncate a file to `len` bytes and sync the truncation.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Create (or truncate) a file with the given contents — the
    /// temp-file half of the write/sync/rename pattern. Not durable
    /// until [`sync`](StorageIo::sync).
    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename a file (durable once it returns).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file (durable once it returns).
    fn unlink(&self, path: &Path) -> io::Result<()>;
}

/// The process-wide IO-error counter; registered on first touch so the
/// series renders (at zero) on any `/metrics` exposition even before an
/// error occurs.
pub fn io_errors_counter() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        obs::registry().counter(
            "lipstick_storage_io_errors_total",
            "Storage file operations that returned an error (NotFound probes excluded)",
        )
    })
}

/// Count a failed IO result, ignoring `NotFound` — recovery paths probe
/// for absent tails on purpose and those misses are not faults.
fn track<T>(result: io::Result<T>) -> io::Result<T> {
    if let Err(e) = &result {
        if e.kind() != io::ErrorKind::NotFound {
            io_errors_counter().inc();
        }
    }
    result
}

/// The default passthrough: real `std::fs`, one call per trait method.
/// This module is the **only** place in `crates/storage/src` allowed to
/// touch `std::fs` directly (enforced by `cargo run -p xtask -- lint`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

impl StorageIo for StdIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        track(std::fs::read(path))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        track(std::fs::metadata(path).map(|m| m.len()))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        track((|| {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            file.write_all(bytes)
        })())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        track(std::fs::File::open(path).and_then(|f| f.sync_all()))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        track((|| {
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(len)?;
            file.sync_all()
        })())
    }

    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        track(std::fs::write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        track(std::fs::rename(from, to))
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        track(std::fs::remove_file(path))
    }
}

/// The shared passthrough instance every `open()`-style convenience
/// constructor uses.
pub fn default_io() -> Arc<dyn StorageIo> {
    static IO: OnceLock<Arc<dyn StorageIo>> = OnceLock::new();
    IO.get_or_init(|| {
        io_errors_counter();
        Arc::new(StdIo)
    })
    .clone()
}

/// What a scheduled fault does when its turn comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the call with the given OS errno (e.g. 28 = ENOSPC,
    /// 5 = EIO) without touching the simulated disk.
    Errno(i32),
    /// Write only a prefix of the bytes, then fail the call — a torn
    /// write. Non-write calls degrade to a plain error.
    ShortWrite,
    /// Drop every un-synced byte on the simulated disk and freeze it:
    /// all further calls fail until [`FaultIo::thaw`], which models the
    /// machine coming back up.
    Crash,
}

/// One simulated file: live contents plus the crash-durable watermark.
#[derive(Debug, Default, Clone)]
struct FileState {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash. Advanced by `sync`; a crash
    /// truncates `data` back to this.
    synced: usize,
}

#[derive(Default)]
struct DiskState {
    files: HashMap<PathBuf, FileState>,
    /// Trait calls performed so far (the fault schedule's clock).
    ops: u64,
    /// `(op index, kind)`: inject when `ops` reaches the index.
    fault: Option<(u64, FaultKind)>,
    frozen: bool,
}

impl DiskState {
    fn crash(&mut self) {
        for file in self.files.values_mut() {
            file.data.truncate(file.synced);
        }
        self.frozen = true;
    }
}

/// A deterministic in-memory disk with scheduled fault injection. Clone
/// handles share one disk, so the IO a store performs is observable (and
/// seedable) from the test that owns the other handle.
#[derive(Clone, Default)]
pub struct FaultIo {
    state: Arc<Mutex<DiskState>>,
}

fn injected(kind: FaultKind, op: u64) -> io::Error {
    match kind {
        FaultKind::Errno(errno) => io::Error::from_raw_os_error(errno),
        FaultKind::ShortWrite => io::Error::new(
            io::ErrorKind::WriteZero,
            format!("injected short write at io op {op}"),
        ),
        FaultKind::Crash => io::Error::other(format!("injected crash at io op {op}")),
    }
}

impl FaultIo {
    pub fn new() -> FaultIo {
        FaultIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Trait calls performed so far — run the workload once cleanly,
    /// read this, and you have the enumeration bound for fail-at-op-k.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Schedule `kind` to fire on the `at`-th trait call from now on
    /// (0-based, counted from construction). One-shot: later calls
    /// succeed again (except after a crash, which freezes the disk).
    pub fn set_fault(&self, at: u64, kind: FaultKind) {
        self.lock().fault = Some((at, kind));
    }

    pub fn clear_fault(&self) {
        self.lock().fault = None;
    }

    /// Un-freeze a crashed disk — the simulated machine reboots with
    /// only the synced bytes surviving (already applied at crash time).
    pub fn thaw(&self) {
        self.lock().frozen = false;
    }

    /// The live contents of a simulated file (`None` if absent) — what
    /// a reader would see *before* any crash.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.data.clone())
    }

    /// Every file on the simulated disk, sorted — what a directory
    /// listing would show.
    pub fn paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = self.lock().files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// Count one op and return the fault to inject, if it is this op's
    /// turn. Errors out immediately (without counting) while frozen.
    fn begin_op(state: &mut DiskState) -> io::Result<Option<(FaultKind, u64)>> {
        if state.frozen {
            return Err(io::Error::other("simulated disk is frozen after a crash"));
        }
        let op = state.ops;
        state.ops += 1;
        match state.fault {
            Some((at, kind)) if at == op => {
                state.fault = None;
                if kind == FaultKind::Crash {
                    state.crash();
                }
                Ok(Some((kind, op)))
            }
            _ => Ok(None),
        }
    }
}

impl StorageIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        st.files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        st.files
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        match Self::begin_op(&mut st)? {
            Some((FaultKind::ShortWrite, op)) => {
                let keep = bytes.len() / 2;
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.data.extend_from_slice(&bytes[..keep]);
                Err(injected(FaultKind::ShortWrite, op))
            }
            Some((kind, op)) => Err(injected(kind, op)),
            None => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.data.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        match st.files.get_mut(path) {
            Some(file) => {
                file.synced = file.data.len();
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        match st.files.get_mut(path) {
            Some(file) => {
                let len = usize::try_from(len).unwrap_or(usize::MAX);
                file.data.truncate(len);
                file.synced = file.synced.min(len);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        match Self::begin_op(&mut st)? {
            Some((FaultKind::ShortWrite, op)) => {
                let keep = bytes.len() / 2;
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.data = bytes[..keep].to_vec();
                file.synced = 0;
                Err(injected(FaultKind::ShortWrite, op))
            }
            Some((kind, op)) => Err(injected(kind, op)),
            None => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.data = bytes.to_vec();
                file.synced = 0;
                Ok(())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        match st.files.remove(from) {
            Some(file) => {
                st.files.insert(to.to_path_buf(), file);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if let Some((kind, op)) = Self::begin_op(&mut st)? {
            return Err(injected(kind, op));
        }
        match st.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn fault_io_appends_syncs_and_survives_a_crash_to_the_synced_prefix() {
        let io = FaultIo::new();
        io.create(&p("a"), b"hello").unwrap();
        io.sync(&p("a")).unwrap();
        io.append(&p("a"), b" world").unwrap();
        assert_eq!(io.read(&p("a")).unwrap(), b"hello world");
        // Crash: the un-synced suffix evaporates, the disk freezes.
        let next = io.ops();
        io.set_fault(next, FaultKind::Crash);
        assert!(io.read(&p("a")).is_err());
        assert!(io.read(&p("a")).is_err(), "frozen disk stays down");
        io.thaw();
        assert_eq!(io.read(&p("a")).unwrap(), b"hello");
    }

    #[test]
    fn errno_faults_fire_once_at_the_scheduled_op() {
        let io = FaultIo::new();
        io.create(&p("a"), b"x").unwrap(); // op 0
        io.set_fault(1, FaultKind::Errno(28)); // ENOSPC on op 1
        let err = io.append(&p("a"), b"y").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        // One-shot: the retry goes through and the data is intact.
        io.append(&p("a"), b"y").unwrap();
        assert_eq!(io.read(&p("a")).unwrap(), b"xy");
    }

    #[test]
    fn short_writes_leave_a_torn_prefix() {
        let io = FaultIo::new();
        io.create(&p("a"), b"").unwrap();
        io.set_fault(1, FaultKind::ShortWrite);
        assert!(io.append(&p("a"), b"abcdef").is_err());
        assert_eq!(io.read(&p("a")).unwrap(), b"abc", "half the write landed");
    }

    #[test]
    fn rename_moves_state_and_unlink_removes_it() {
        let io = FaultIo::new();
        io.create(&p("tmp"), b"data").unwrap();
        io.sync(&p("tmp")).unwrap();
        io.rename(&p("tmp"), &p("final")).unwrap();
        assert!(io.read(&p("tmp")).is_err());
        assert_eq!(io.read(&p("final")).unwrap(), b"data");
        io.unlink(&p("final")).unwrap();
        assert_eq!(
            io.read(&p("final")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn renaming_an_unsynced_file_then_crashing_truncates_it() {
        // The failure COMPACT's explicit temp-sync exists to prevent:
        // rename is durable but the data behind it is not.
        let io = FaultIo::new();
        io.create(&p("tmp"), b"unsynced").unwrap();
        io.rename(&p("tmp"), &p("base")).unwrap();
        let next = io.ops();
        io.set_fault(next, FaultKind::Crash);
        assert!(io.len(&p("base")).is_err());
        io.thaw();
        assert_eq!(io.read(&p("base")).unwrap(), b"", "data never synced");
    }

    #[test]
    fn std_io_round_trips_and_counts_errors() {
        let dir = std::env::temp_dir().join(format!("lipstick-stdio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let io = StdIo;
        io.create(&path, b"abc").unwrap();
        io.append(&path, b"def").unwrap();
        io.sync(&path).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"abcdef");
        assert_eq!(io.len(&path).unwrap(), 6);
        io.truncate(&path, 2).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"ab");
        let moved = dir.join("moved.bin");
        io.rename(&path, &moved).unwrap();
        io.unlink(&moved).unwrap();

        // NotFound probes are not counted as IO errors...
        let before = io_errors_counter().get();
        assert!(io.read(&dir.join("missing")).is_err());
        assert_eq!(io_errors_counter().get(), before);
        // ...but a real failure is (reading a directory as a file).
        assert!(io.read(&dir).is_err());
        assert!(io_errors_counter().get() > before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
