//! A timing `StorageIo` decorator: wraps the product's default IO,
//! counts calls and bytes, keeps per-call latencies for `append` and
//! `sync`, and (when given a recorder) records each call as a span
//! under whatever operation the benchmark currently has open.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lipstick_storage::{default_io, StorageIo};

use crate::trace::Recorder;

#[derive(Default)]
pub struct IoCounts {
    pub append_calls: AtomicU64,
    pub sync_calls: AtomicU64,
    pub read_calls: AtomicU64,
    /// Bytes handed to `append` and `create`.
    pub bytes_written: AtomicU64,
    pub append_us: Mutex<Vec<f64>>,
    pub sync_us: Mutex<Vec<f64>>,
}

pub struct TimingIo {
    inner: Arc<dyn StorageIo>,
    pub counts: IoCounts,
    recorder: Option<Arc<Recorder>>,
}

impl TimingIo {
    pub fn new(recorder: Option<Arc<Recorder>>) -> Arc<TimingIo> {
        Arc::new(TimingIo {
            inner: default_io(),
            counts: IoCounts::default(),
            recorder,
        })
    }

    pub fn bytes_written(&self) -> u64 {
        self.counts.bytes_written.load(Ordering::Relaxed)
    }

    /// Run one IO call, timing it; returns the result and microseconds.
    fn call<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> io::Result<T>,
    ) -> (io::Result<T>, f64) {
        let start_ns = self.recorder.as_ref().map(|r| r.now_ns());
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        if let (Some(rec), Some(start_ns)) = (&self.recorder, start_ns) {
            rec.io(name, start_ns, rec.now_ns());
        }
        (out, us)
    }
}

impl StorageIo for TimingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counts.read_calls.fetch_add(1, Ordering::Relaxed);
        self.call("read", || self.inner.read(path)).0
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.call("len", || self.inner.len(path)).0
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counts.append_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let (out, us) = self.call("append", || self.inner.append(path, bytes));
        self.counts.append_us.lock().expect("latency list").push(us);
        out
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.counts.sync_calls.fetch_add(1, Ordering::Relaxed);
        let (out, us) = self.call("sync", || self.inner.sync(path));
        self.counts.sync_us.lock().expect("latency list").push(us);
        out
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.call("truncate", || self.inner.truncate(path, len)).0
    }

    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counts
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.call("create", || self.inner.create(path, bytes)).0
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.call("rename", || self.inner.rename(from, to)).0
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        self.call("unlink", || self.inner.unlink(path)).0
    }
}
