//! A blocking line-protocol client, used by `proql_shell --connect`,
//! the server's tests, and the `proql_server` bench.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::proto::{read_reply, write_request, FrameWriter, Reply};

/// How [`Client::query_with_retry`] behaves under `BUSY` shedding and
/// transient transport failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total send attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// First backoff, milliseconds; doubles per retry (full jitter).
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (1-based): exponential
    /// growth from the base, capped, then **full jitter** — a uniform
    /// draw from `[cap/2, cap]` — so a burst of shed clients doesn't
    /// retry in lockstep and re-saturate the queue it just overflowed.
    /// A server-provided `retry_after_ms` hint raises the floor.
    fn backoff(&self, retry: u32, server_hint_ms: Option<u64>) -> Duration {
        let cap = self
            .base_backoff_ms
            .saturating_mul(1u64 << retry.min(20).saturating_sub(1))
            .clamp(1, self.max_backoff_ms.max(1));
        let jittered = cap / 2 + jitter_below(cap / 2 + 1);
        Duration::from_millis(jittered.max(server_hint_ms.unwrap_or(0)))
    }
}

/// Cheap process-wide jitter source: a counter seeded from the clock
/// once, hashed by `rand::mix`. Statistical quality hardly matters —
/// the point is only that concurrent clients desynchronize their
/// retries.
fn jitter_below(bound: u64) -> u64 {
    static STATE: AtomicU64 = AtomicU64::new(0);
    if STATE.load(Ordering::Relaxed) == 0 {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(1, |d| d.as_nanos() as u64)
            | 1;
        let _ = STATE.compare_exchange(0, seed, Ordering::Relaxed, Ordering::Relaxed);
    }
    rand::mix(STATE.fetch_add(1, Ordering::Relaxed)) % bound.max(1)
}

/// Is this transport error worth a reconnect-and-retry? Connection
/// teardown mid-exchange (the server restarted, an idle timeout fired,
/// a shutdown drained us) is; anything else — refused, malformed
/// frames (`InvalidData`), permissions — is not.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// One persistent line-protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    /// Resolved at connect time so retries can re-dial the same server
    /// without repeating (possibly nondeterministic) name resolution.
    addr: SocketAddr,
    /// Cumulative retries issued by [`Client::query_with_retry`] over
    /// this client's lifetime (reconnects and post-`BUSY` resends).
    retries: u64,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved empty",
            )
        })?;
        let stream = TcpStream::connect(resolved)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: FrameWriter::new(stream),
            addr: resolved,
            retries: 0,
        })
    }

    /// The server address this client resolved at connect time.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Retries issued by [`Client::query_with_retry`] so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Drop the current connection and dial the stored address again.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = FrameWriter::new(stream);
        Ok(())
    }

    /// Send one statement and wait for its framed reply. Newlines in
    /// the statement collapse to spaces (the protocol is one statement
    /// per line). The statement and its `\n` leave in one write, so the
    /// request is one segment and the server never wakes on half a
    /// line; the server answers `ERR` to, and then closes, a statement
    /// longer than [`MAX_REQUEST_LINE`](crate::proto::MAX_REQUEST_LINE)
    /// bytes.
    pub fn query(&mut self, statement: &str) -> std::io::Result<Reply> {
        self.writer.send(|buf| write_request(buf, statement))?;
        read_reply(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })
    }

    /// [`Client::query`] with retries: `BUSY` sheds back off (honoring
    /// the server's `retry_after_ms` floor) and resend; transient
    /// transport failures reconnect first. Both wait a jittered
    /// exponential backoff. After `max_attempts` the last outcome is
    /// returned as-is — a final `BUSY` surfaces as `Ok(Reply::Busy)`,
    /// so callers still see the shed rather than an invented error.
    ///
    /// Retrying is safe here because shed statements never executed,
    /// and a statement whose reply was torn by a connection drop is
    /// only resent — at-least-once, matching what the shell already
    /// accepts from manual reruns.
    pub fn query_with_retry(
        &mut self,
        statement: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<Reply> {
        let attempts = policy.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            let outcome = self.query(statement);
            retry += 1;
            let hint = match &outcome {
                Ok(Reply::Busy { retry_after_ms }) if retry < attempts => Some(*retry_after_ms),
                Err(e) if transient(e) && retry < attempts => None,
                _ => return outcome,
            };
            self.retries += 1;
            std::thread::sleep(policy.backoff(retry, hint));
            if hint.is_none() {
                // Transport failure: the old socket is dead; a failed
                // re-dial is final (the server is gone, not busy).
                self.reconnect()?;
            }
        }
    }
}

/// Issue one HTTP `POST /query` on a fresh connection (the shim is
/// one-shot) and return `(status line, body)`.
pub fn http_post_query(
    addr: impl ToSocketAddrs,
    statement: &str,
) -> std::io::Result<(String, String)> {
    http_request(addr, &{
        let body = statement.as_bytes();
        let mut req = format!(
            "POST /query HTTP/1.1\r\nHost: lipstick\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        req.push_str(statement);
        req
    })
}

/// Issue one HTTP `GET /explain?q=…` (statement percent-encoded by the
/// caller or plain if it needs no escaping).
pub fn http_get_explain(
    addr: impl ToSocketAddrs,
    encoded_query: &str,
) -> std::io::Result<(String, String)> {
    http_request(
        addr,
        &format!("GET /explain?q={encoded_query} HTTP/1.1\r\nHost: lipstick\r\n\r\n"),
    )
}

/// Issue one HTTP `GET` for an arbitrary target (`/metrics`,
/// `/slow?n=…`) and return `(status line, body)`.
pub fn http_get(addr: impl ToSocketAddrs, target: &str) -> std::io::Result<(String, String)> {
    http_request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: lipstick\r\n\r\n"),
    )
}

fn http_request(addr: impl ToSocketAddrs, raw: &str) -> std::io::Result<(String, String)> {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body split")
    })?;
    let status = head.lines().next().unwrap_or_default().to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_honors_the_server_hint() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10,
            max_backoff_ms: 80,
        };
        for retry in 1..=8 {
            let cap = (10u64 << (retry - 1)).min(80);
            let d = policy.backoff(retry, None).as_millis() as u64;
            assert!(
                (cap / 2..=cap).contains(&d),
                "retry {retry}: {d}ms outside [{}, {cap}]",
                cap / 2
            );
        }
        // The server's hint is a floor, not a cap.
        let d = policy.backoff(1, Some(500)).as_millis() as u64;
        assert!(d >= 500, "hint ignored: {d}ms");
    }

    #[test]
    fn transient_classification_separates_teardown_from_refusal() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(transient(&Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::InvalidData,
            ErrorKind::PermissionDenied,
        ] {
            assert!(!transient(&Error::new(kind, "x")), "{kind:?}");
        }
    }
}
