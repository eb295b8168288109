//! The closed-loop wire driver: each client thread owns one persistent
//! line-protocol connection and sends its next statement only after
//! the previous reply arrived. ProQL's callers (the shell, replay,
//! dashboards) all wait for each answer, so a closed loop is the
//! honest load model; with as many clients as server workers nothing
//! queues, and at most `clients` threads are runnable at any moment.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use lipstick_core::obs::fnv1a64;
use lipstick_serve::client::RetryPolicy;
use lipstick_serve::{Client, Reply};

use crate::gen::Stmt;

/// One answered statement, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the statement list.
    pub stmt: u32,
    pub latency_us: f64,
    pub epoch: u32,
    pub ok: bool,
    pub cache_hit: bool,
    /// `fnv1a64` of the raw reply body.
    pub raw_fnv: u64,
}

/// What one client thread brings back from one round.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Reply bodies kept for verification against the reference:
    /// `(sample index, body)`.
    pub bodies: Vec<(u32, String)>,
    pub retries: u64,
    /// Where in its sequence the client stopped.
    pub position: usize,
    /// A transport failure, if one ended the round early.
    pub error: Option<String>,
}

/// Which reply bodies a client keeps (hashing is done for all).
#[derive(Clone, Copy)]
pub enum Keep {
    /// The first body seen for each statement — enough when the store
    /// does not change under the readers.
    FirstPerStatement,
    /// Every `n`th reply, for stores that mutate during the round.
    Every(usize),
}

pub fn sample_of(stmt: u32, latency: Duration, reply: &Reply) -> Sample {
    Sample {
        stmt,
        latency_us: latency.as_nanos() as f64 / 1e3,
        epoch: reply.epoch().unwrap_or(0).min(u32::MAX as u64) as u32,
        ok: reply.is_ok(),
        cache_hit: reply.cache_hit(),
        raw_fnv: fnv1a64(reply.body().as_bytes()),
    }
}

/// Run one client over `sequence` (indices into `list`, cycled from
/// `start_at`) until `until` passes.
pub fn run_client(
    addr: SocketAddr,
    list: &[Stmt],
    sequence: &[u32],
    start_at: usize,
    keep: Keep,
    until: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        position: start_at,
        ..ClientLog::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.error = Some(format!("connect: {e}"));
            return log;
        }
    };
    let mut seen = vec![false; list.len()];
    let policy = RetryPolicy::default();
    while Instant::now() < until {
        let idx = sequence[log.position % sequence.len()];
        let start = Instant::now();
        let reply = match client.query_with_retry(&list[idx as usize].text, &policy) {
            Ok(r) => r,
            Err(e) => {
                log.error = Some(format!("{}: {e}", list[idx as usize].text));
                break;
            }
        };
        let latency = start.elapsed();
        let n = log.samples.len();
        log.samples.push(sample_of(idx, latency, &reply));
        let keep_body = match keep {
            Keep::FirstPerStatement => !std::mem::replace(&mut seen[idx as usize], true),
            Keep::Every(k) => n.is_multiple_of(k),
        };
        if keep_body || !reply.is_ok() {
            let body = match reply {
                Reply::Ok { body, .. } => body,
                Reply::Err(message) => message,
                Reply::Busy { retry_after_ms } => format!("BUSY retry_after_ms={retry_after_ms}"),
            };
            log.bodies.push((n as u32, body));
        }
        log.position += 1;
    }
    log.retries = client.retries();
    log
}

/// One round: `sequences.len()` clients in parallel for `duration`.
/// Returns the logs and the wall time from the common start to the
/// last client's last reply.
pub fn run_round(
    addr: SocketAddr,
    list: &[Stmt],
    sequences: &[Vec<u32>],
    positions: &[usize],
    keep: Keep,
    duration: Duration,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let until = start + duration;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .zip(positions)
            .map(|(seq, &pos)| scope.spawn(move || run_client(addr, list, seq, pos, keep, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}
