//! Wire formats: the newline-delimited line protocol and the minimal
//! HTTP/1.1 shim that share one listener.
//!
//! ## Line protocol
//!
//! One request per line — a single ProQL statement, trailing `;`
//! optional. Responses are framed by a header line:
//!
//! ```text
//! OK <payload-lines> cache_hit=<0|1> epoch=<n> time_us=<µs> reads=<n>
//! <payload line 1>
//! …
//! ERR <single-line message>
//! BUSY retry_after_ms=<ms>
//! ```
//!
//! `time_us` is the server-side wall time spent answering (cache hits
//! report the lookup time, not the original execution), and `reads` is
//! the number of backend record decodes the statement charged — 0 for
//! resident backends and cache hits. Clients that predate these
//! trailers still parse: both fields default to 0 when absent.
//!
//! The header names how many payload lines follow, so clients never
//! sniff for prompts or blank lines. Connections are persistent: a
//! client issues any number of statements before disconnecting.
//!
//! **One write per frame, in each direction.** A request (statement
//! plus `\n`) and a whole response (header, payload, final `\n`) each
//! reach the socket in a single write. With `TCP_NODELAY` on both ends
//! every write is its own segment, so a frame split across writes costs
//! an extra segment and wakes the peer on half a message. **A request
//! line is bounded:** the server reads at most [`MAX_REQUEST_LINE`]
//! bytes of a statement (or of an HTTP header line); past that it
//! answers `ERR` naming the limit and closes the connection.
//!
//! `BUSY` is overload shedding, not failure: as many writers as the
//! server admits are already waiting, and the statement was **not**
//! executed. `retry_after_ms` is the server's estimate of when a retry
//! will find room (the last write's wall time per waiting writer). Distinct from `ERR` so
//! clients can retry blindly without re-examining statement semantics.
//!
//! ## HTTP shim
//!
//! The same listener answers `POST /query` (body = one statement) and
//! `GET /explain?q=<percent-encoded statement>` with JSON bodies, one
//! request per connection (`Connection: close`). A connection is
//! classified by its first line: HTTP request lines end with an
//! `HTTP/1.x` version tag, which no ProQL statement can (statements
//! never contain `/`).

use std::fmt;
use std::io::{BufRead, IoSlice, Read, Result, Write};

/// What went wrong while reading a peer's bytes: transport failure, or
/// bytes that don't follow the protocol. Typed so callers can tell a
/// dead socket from a corrupt (or hostile) peer without string
/// matching, and so the read paths never panic on malformed input.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer sent bytes that violate the framing; the message names
    /// what was expected.
    Malformed(String),
    /// The connection closed mid-frame (after a header promised more).
    UnexpectedEof(&'static str),
    /// A request line (a statement, or an HTTP header line) ran past
    /// [`MAX_REQUEST_LINE`] bytes without a newline.
    LineTooLong,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol transport error: {e}"),
            ProtoError::Malformed(what) => write!(f, "malformed protocol data: {what}"),
            ProtoError::UnexpectedEof(what) => write!(f, "connection closed {what}"),
            ProtoError::LineTooLong => write!(
                f,
                "request line exceeds {MAX_REQUEST_LINE} bytes (MAX_REQUEST_LINE)"
            ),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Lets `?` lift protocol errors into `io::Result` call sites (the
/// client and server loops), preserving the io error kind where one
/// makes sense.
impl From<ProtoError> for std::io::Error {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => io,
            ProtoError::Malformed(what) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, what)
            }
            ProtoError::UnexpectedEof(what) => {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what)
            }
            too_long @ ProtoError::LineTooLong => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, too_long.to_string())
            }
        }
    }
}

/// How a freshly accepted connection speaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirstLine {
    /// HTTP request line: method, target, version.
    Http { method: String, target: String },
    /// Anything else: the line is already the first ProQL statement.
    Proql(String),
}

/// Classify a connection's first line.
pub fn classify_first_line(line: &str) -> FirstLine {
    let mut parts = line.split_whitespace();
    if let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    {
        if version.starts_with("HTTP/") && parts.next().is_none() {
            return FirstLine::Http {
                method: method.to_string(),
                target: target.to_string(),
            };
        }
    }
    FirstLine::Proql(line.to_string())
}

/// One parsed line-protocol response, as read back by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Ok {
        cache_hit: bool,
        epoch: u64,
        /// Server-side wall time for this response, microseconds.
        time_us: u64,
        /// Backend record decodes charged to this statement (0 on
        /// resident backends and cache hits).
        reads: u64,
        /// Payload lines, joined with `\n`.
        body: String,
    },
    Err(String),
    /// The server shed this statement: its bounded write queue was
    /// full. The statement did not execute; retry after the hint.
    Busy {
        retry_after_ms: u64,
    },
}

impl Reply {
    /// The payload, whichever arm carries it.
    pub fn body(&self) -> &str {
        match self {
            Reply::Ok { body, .. } => body,
            Reply::Err(m) => m,
            Reply::Busy { .. } => "",
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }

    pub fn is_busy(&self) -> bool {
        matches!(self, Reply::Busy { .. })
    }

    pub fn cache_hit(&self) -> bool {
        matches!(
            self,
            Reply::Ok {
                cache_hit: true,
                ..
            }
        )
    }

    pub fn epoch(&self) -> Option<u64> {
        match self {
            Reply::Ok { epoch, .. } => Some(*epoch),
            _ => None,
        }
    }

    /// Server-side wall time, if the reply was a success.
    pub fn time_us(&self) -> Option<u64> {
        match self {
            Reply::Ok { time_us, .. } => Some(*time_us),
            _ => None,
        }
    }

    /// Backend record decodes charged, if the reply was a success.
    pub fn reads(&self) -> Option<u64> {
        match self {
            Reply::Ok { reads, .. } => Some(*reads),
            _ => None,
        }
    }

    /// The shed hint, if the reply was `BUSY`.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Reply::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// Write a success response: a header line that counts the payload's
/// lines, then the payload and a final `\n`. An empty payload has no
/// lines; otherwise every `\n` in it starts another (so a trailing or
/// doubled `\n` yields empty lines, which [`read_reply`] restores).
pub fn write_ok(
    w: &mut impl Write,
    payload: &str,
    cache_hit: bool,
    epoch: u64,
    time_us: u64,
    reads: u64,
) -> Result<()> {
    let end = write_ok_header(w, payload, cache_hit, epoch, time_us, reads)?;
    w.write_all(payload.as_bytes())?;
    w.write_all(end)?;
    w.flush()
}

/// [`write_ok`]'s header line; returns what follows the payload (`\n`,
/// or nothing for an empty payload).
fn write_ok_header(
    w: &mut impl Write,
    payload: &str,
    cache_hit: bool,
    epoch: u64,
    time_us: u64,
    reads: u64,
) -> Result<&'static [u8]> {
    let lines = if payload.is_empty() {
        0
    } else {
        1 + payload.bytes().filter(|&b| b == b'\n').count()
    };
    writeln!(
        w,
        "OK {lines} cache_hit={} epoch={epoch} time_us={time_us} reads={reads}",
        u8::from(cache_hit)
    )?;
    Ok(if lines == 0 { b"" } else { b"\n" })
}

/// Write an error response. Multi-line messages collapse onto one line
/// so the framing stays parseable.
pub fn write_err(w: &mut impl Write, message: &str) -> Result<()> {
    let flat = message.replace('\n', "; ");
    writeln!(w, "ERR {flat}")?;
    w.flush()
}

/// Write an overload-shed response. One line, no payload: the
/// statement was not executed and may be retried verbatim.
pub fn write_busy(w: &mut impl Write, retry_after_ms: u64) -> Result<()> {
    writeln!(w, "BUSY retry_after_ms={retry_after_ms}")?;
    w.flush()
}

/// Write a request: one statement on one line. Newlines in the
/// statement become spaces (the protocol is one statement per line).
pub(crate) fn write_request(w: &mut impl Write, statement: &str) -> Result<()> {
    for (i, part) in statement.split(['\n', '\r']).enumerate() {
        if i > 0 {
            w.write_all(b" ")?;
        }
        w.write_all(part.as_bytes())?;
    }
    w.write_all(b"\n")
}

/// A connection's sending half: each frame reaches the transport in
/// one write, so a request or a response is one segment on the wire
/// however its writer ([`write_request`], [`write_err`], …) composes
/// it. Frames are built in one reusable buffer, except that a success
/// response's payload is not copied: [`FrameWriter::send_ok`] sends the
/// header, the payload and the final `\n` in one vectored write.
pub(crate) struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter {
            inner,
            buf: Vec::new(),
        }
    }

    /// Build one frame with `frame` and send it in one write.
    pub fn send(&mut self, frame: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        self.buf.clear();
        frame(&mut self.buf)?;
        self.inner.write_all(&self.buf)?;
        self.inner.flush()
    }

    /// Send [`write_ok`]'s bytes in one write without copying `payload`.
    pub fn send_ok(
        &mut self,
        payload: &str,
        cache_hit: bool,
        epoch: u64,
        time_us: u64,
        reads: u64,
    ) -> Result<()> {
        self.buf.clear();
        let end = write_ok_header(&mut self.buf, payload, cache_hit, epoch, time_us, reads)?;
        let mut frame = [
            IoSlice::new(&self.buf),
            IoSlice::new(payload.as_bytes()),
            IoSlice::new(end),
        ];
        write_all_vectored(&mut self.inner, &mut frame)?;
        self.inner.flush()
    }
}

/// Write every byte of `bufs`, each call passing all that is left (what
/// the unstable `Write::write_all_vectored` does).
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write a whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one framed response off the wire (client side). Returns `None`
/// on clean EOF before a header line; bytes that violate the framing
/// come back as [`ProtoError::Malformed`], never a panic.
pub fn read_reply(r: &mut impl BufRead) -> std::result::Result<Option<Reply>, ProtoError> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end_matches(['\r', '\n']);
    if let Some(msg) = header.strip_prefix("ERR ") {
        return Ok(Some(Reply::Err(msg.to_string())));
    }
    if let Some(rest) = header.strip_prefix("BUSY ") {
        let retry_after_ms = rest
            .strip_prefix("retry_after_ms=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ProtoError::Malformed(format!("BUSY header field: {rest:?}")))?;
        return Ok(Some(Reply::Busy { retry_after_ms }));
    }
    let Some(rest) = header.strip_prefix("OK ") else {
        return Err(ProtoError::Malformed(format!(
            "response header: {header:?}"
        )));
    };
    let mut fields = rest.split(' ');
    let parse_fail = |what: &str| ProtoError::Malformed(format!("OK header field: {what}"));
    let nlines: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_fail("payload line count"))?;
    let cache_hit = match fields.next() {
        Some("cache_hit=1") => true,
        Some("cache_hit=0") => false,
        _ => return Err(parse_fail("cache_hit")),
    };
    let epoch: u64 = fields
        .next()
        .and_then(|s| s.strip_prefix("epoch="))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_fail("epoch"))?;
    // Timing trailers are newer than the framing: absent fields (an
    // older server) default to 0 rather than failing the parse.
    let mut time_us = 0u64;
    let mut reads = 0u64;
    for field in fields {
        if let Some(v) = field.strip_prefix("time_us=") {
            time_us = v.parse().map_err(|_| parse_fail("time_us"))?;
        } else if let Some(v) = field.strip_prefix("reads=") {
            reads = v.parse().map_err(|_| parse_fail("reads"))?;
        }
    }
    // The payload lines are read straight into the body, each line's
    // terminator (and any `\r` before it) cut off and a `\n` put between
    // lines. The header is untrusted wire input, so the declared count
    // sizes nothing: the body grows only as lines actually arrive.
    let mut body = String::new();
    for i in 0..nlines {
        if i > 0 {
            body.push('\n');
        }
        let start = body.len();
        if r.read_line(&mut body)? == 0 {
            return Err(ProtoError::UnexpectedEof("mid-payload"));
        }
        let kept = body[start..].trim_end_matches(['\r', '\n']).len();
        body.truncate(start + kept);
    }
    // Growing by doubling can leave up to half the capacity unused; a
    // caller that keeps replies should not keep that too.
    body.shrink_to_fit();
    Ok(Some(Reply::Ok {
        cache_hit,
        epoch,
        time_us,
        reads,
        body,
    }))
}

/// Largest request body the HTTP shim accepts.
pub const MAX_HTTP_BODY: usize = 1 << 20;

/// Longest request line the server reads: a line-protocol statement or
/// one HTTP header line, terminator excluded. Without a bound one peer
/// could make a worker buffer any amount of memory, and the idle
/// timeout never fires on a peer that keeps sending.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Read one request line into `buf` (cleared first) and return it with
/// its terminator and any `\r` before it cut off, or `None` on clean EOF
/// before any byte. A final line without a newline is still a line.
/// More than [`MAX_REQUEST_LINE`] bytes without a newline is
/// [`ProtoError::LineTooLong`]; bytes that are not UTF-8 are an
/// `InvalidData` transport error, as `BufRead::read_line` reports them.
pub(crate) fn read_request_line<'a>(
    r: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> std::result::Result<Option<&'a str>, ProtoError> {
    buf.clear();
    // One byte past the bound tells an over-long line from one that
    // exactly fills it.
    let n = r.take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
        return Err(ProtoError::LineTooLong);
    }
    let line = std::str::from_utf8(buf).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    Ok(Some(line.trim_end_matches(['\r', '\n'])))
}

/// Read HTTP headers (after the request line) and the body demanded by
/// `Content-Length`. Headers other than `Content-Length` are ignored.
/// Returns `None` when the declared body exceeds [`MAX_HTTP_BODY`] —
/// silently truncating could execute a different (valid-prefix)
/// statement than the one sent, so the caller must reject instead. A
/// header line longer than [`MAX_REQUEST_LINE`] is
/// [`ProtoError::LineTooLong`].
pub fn read_http_request_rest(
    r: &mut impl BufRead,
) -> std::result::Result<Option<String>, ProtoError> {
    let mut content_length = 0usize;
    let mut buf = Vec::new();
    while let Some(line) = read_request_line(r, &mut buf)? {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_HTTP_BODY {
        return Ok(None);
    }
    // The body grows with the bytes that arrive, not with the declared
    // length.
    buf.clear();
    r.take(content_length as u64).read_to_end(&mut buf)?;
    if buf.len() < content_length {
        return Err(ProtoError::UnexpectedEof(
            "before the declared Content-Length arrived",
        ));
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Write an HTTP response with a JSON body.
pub fn write_http_json(w: &mut impl Write, status: &str, body: &str) -> Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// Write an HTTP response with a plain-text body — the Prometheus
/// `/metrics` exposition, which scrapers expect as
/// `text/plain; version=0.0.4`.
pub fn write_http_text(w: &mut impl Write, status: &str, body: &str) -> Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// Percent-decode a query-string value (`+` is a space).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h << 4 | l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn classifies_http_and_proql_first_lines() {
        assert_eq!(
            classify_first_line("POST /query HTTP/1.1"),
            FirstLine::Http {
                method: "POST".into(),
                target: "/query".into()
            }
        );
        assert_eq!(
            classify_first_line("GET /explain?q=STATS HTTP/1.0"),
            FirstLine::Http {
                method: "GET".into(),
                target: "/explain?q=STATS".into()
            }
        );
        assert_eq!(
            classify_first_line("MATCH m-nodes WHERE module = 'M';"),
            FirstLine::Proql("MATCH m-nodes WHERE module = 'M';".into())
        );
        // DEPENDS(#1, #2) has three words but no HTTP version tag.
        assert_eq!(
            classify_first_line("DEPENDS( #1, #2 )"),
            FirstLine::Proql("DEPENDS( #1, #2 )".into())
        );
    }

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn ok_reply_roundtrips() -> TestResult {
        let mut buf = Vec::new();
        write_ok(&mut buf, "line one\nline two", true, 7, 142, 9)?;
        let mut r = std::io::BufReader::new(&buf[..]);
        let reply = read_reply(&mut r)?.ok_or("missing reply")?;
        assert_eq!(
            reply,
            Reply::Ok {
                cache_hit: true,
                epoch: 7,
                time_us: 142,
                reads: 9,
                body: "line one\nline two".into()
            }
        );
        assert_eq!(read_reply(&mut r)?, None, "clean EOF");
        Ok(())
    }

    #[test]
    fn empty_payload_roundtrips() -> TestResult {
        let mut buf = Vec::new();
        write_ok(&mut buf, "", false, 0, 0, 0)?;
        let reply = read_reply(&mut std::io::BufReader::new(&buf[..]))?.ok_or("missing reply")?;
        assert_eq!(
            reply,
            Reply::Ok {
                cache_hit: false,
                epoch: 0,
                time_us: 0,
                reads: 0,
                body: String::new()
            }
        );
        Ok(())
    }

    /// A header from a pre-trailer server (no `time_us=`/`reads=`)
    /// still parses, defaulting both fields to 0.
    #[test]
    fn headers_without_timing_trailers_still_parse() -> TestResult {
        let wire = b"OK 1 cache_hit=0 epoch=3\nhello\n";
        let reply = read_reply(&mut std::io::BufReader::new(&wire[..]))?.ok_or("missing reply")?;
        assert_eq!(
            reply,
            Reply::Ok {
                cache_hit: false,
                epoch: 3,
                time_us: 0,
                reads: 0,
                body: "hello".into()
            }
        );
        Ok(())
    }

    #[test]
    fn busy_reply_roundtrips() -> TestResult {
        let mut buf = Vec::new();
        write_busy(&mut buf, 12)?;
        let mut r = std::io::BufReader::new(&buf[..]);
        let reply = read_reply(&mut r)?.ok_or("missing reply")?;
        assert_eq!(reply, Reply::Busy { retry_after_ms: 12 });
        assert!(reply.is_busy() && !reply.is_ok());
        assert_eq!(reply.retry_after_ms(), Some(12));
        assert_eq!(reply.epoch(), None, "BUSY carries no epoch");
        assert_eq!(read_reply(&mut r)?, None, "single line, no payload");
        // A mangled hint is a framing violation, not a silent default:
        // treating it as OK-to-retry-now could stampede the server.
        let garbage = b"BUSY retry_after_ms=soon\n";
        match read_reply(&mut std::io::BufReader::new(&garbage[..])) {
            Err(ProtoError::Malformed(what)) => assert!(what.contains("BUSY")),
            other => panic!("want Malformed, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn err_reply_flattens_newlines() -> TestResult {
        let mut buf = Vec::new();
        write_err(&mut buf, "parse error:\nunexpected thing")?;
        let reply = read_reply(&mut std::io::BufReader::new(&buf[..]))?.ok_or("missing reply")?;
        assert_eq!(reply, Reply::Err("parse error:; unexpected thing".into()));
        Ok(())
    }

    /// Framing violations come back as typed [`ProtoError`] values —
    /// distinguishable from transport failures, and never a panic.
    #[test]
    fn malformed_bytes_yield_typed_errors() {
        let garbage = b"WAT 3 cache_hit=9\n";
        match read_reply(&mut std::io::BufReader::new(&garbage[..])) {
            Err(ProtoError::Malformed(what)) => assert!(what.contains("response header")),
            other => panic!("want Malformed, got {other:?}"),
        }
        let bad_field = b"OK x cache_hit=1 epoch=0\n";
        match read_reply(&mut std::io::BufReader::new(&bad_field[..])) {
            Err(ProtoError::Malformed(what)) => assert!(what.contains("payload line count")),
            other => panic!("want Malformed, got {other:?}"),
        }
        // A header that promises more payload than arrives: EOF, typed.
        let truncated = b"OK 2 cache_hit=0 epoch=1\nonly one line\n";
        match read_reply(&mut std::io::BufReader::new(&truncated[..])) {
            Err(ProtoError::UnexpectedEof(_)) => {}
            other => panic!("want UnexpectedEof, got {other:?}"),
        }
        // The io::Error conversion keeps the error kinds apart.
        let io: std::io::Error = ProtoError::Malformed("x".into()).into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        let io: std::io::Error = ProtoError::UnexpectedEof("y").into();
        assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    fn framed_ok(payload: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        let framed = write_ok(&mut buf, payload, true, 3, 17, 2);
        assert!(framed.is_ok(), "a Vec never fails a write");
        buf
    }

    /// A payload over 8 KiB: 400 lines of 24 bytes, so a buffered writer
    /// would have split its frame.
    fn big_payload() -> String {
        (0..400)
            .map(|i| format!("N{i:05} = t{i:05} * t{:05}", i + 1))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The reply bytes are pinned: one header counting the lines, the
    /// payload verbatim, one final `\n` (none for an empty payload).
    #[test]
    fn ok_frames_match_the_golden_bytes() {
        let head = "cache_hit=1 epoch=3 time_us=17 reads=2";
        for (payload, golden) in [
            ("", format!("OK 0 {head}\n")),
            ("one line", format!("OK 1 {head}\none line\n")),
            ("trailing\n", format!("OK 2 {head}\ntrailing\n\n")),
            ("a\n\n\nb", format!("OK 4 {head}\na\n\n\nb\n")),
        ] {
            assert_eq!(
                String::from_utf8_lossy(&framed_ok(payload)),
                golden,
                "{payload:?}"
            );
        }
        let big = big_payload();
        assert_eq!(big.len(), 9_999);
        assert_eq!(
            framed_ok(&big),
            format!("OK 400 {head}\n{big}\n").into_bytes()
        );
    }

    /// Every payload without a `\r` reads back exactly as written.
    #[test]
    fn read_reply_inverts_write_ok() -> TestResult {
        let mut payloads: Vec<String> = [
            "",
            "\n",
            "\n\n",
            "a",
            "a\n",
            "\na",
            "a\n\nb",
            " x \n y ",
            "é\n—\n",
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        payloads.push(big_payload());
        // Seeded strings over an alphabet heavy in newlines.
        let mut rng = StdRng::seed_from_u64(0x2545_f491_4f6c_dd1d);
        for _ in 0..500 {
            let len = rng.below(24);
            payloads.push(
                (0..len)
                    .map(|_| *rng.pick(&['a', '\n', ' ', 'é', ';']))
                    .collect(),
            );
        }
        for payload in payloads {
            let wire = framed_ok(&payload);
            let reply = read_reply(&mut &wire[..])?.ok_or("missing reply")?;
            assert_eq!(reply.body(), payload, "{payload:?}");
        }
        Ok(())
    }

    /// A `Write` that records each call it receives.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> Result<usize> {
            let call: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let n = call.len();
            self.writes.push(call);
            Ok(n)
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// A request and each kind of reply reach the transport as exactly
    /// one `write` call carrying the whole frame.
    #[test]
    fn each_frame_is_one_write() -> TestResult {
        let mut out = FrameWriter::new(Recorder::default());
        out.send(|buf| write_request(buf, "MATCH\nm-nodes\r\nWHERE module = 'M'"))?;
        let big = big_payload();
        out.send_ok(&big, false, 1, 2, 3)?;
        out.send_ok("", false, 1, 2, 3)?;
        out.send(|buf| write_err(buf, "two\nlines"))?;
        out.send(|buf| write_busy(buf, 9))?;
        let writes = &out.inner.writes;
        assert_eq!(writes.len(), 5, "one write per frame");
        assert_eq!(writes[0], b"MATCH m-nodes  WHERE module = 'M'\n");
        let mut framed = Vec::new();
        write_ok(&mut framed, &big, false, 1, 2, 3)?;
        assert_eq!(writes[1], framed);
        assert_eq!(writes[2], b"OK 0 cache_hit=0 epoch=1 time_us=2 reads=3\n");
        assert_eq!(writes[3], b"ERR two; lines\n");
        assert_eq!(writes[4], b"BUSY retry_after_ms=9\n");
        Ok(())
    }

    /// A transport that takes at most 7 bytes per call.
    #[derive(Default)]
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// Short writes resume where they stopped, across the header, the
    /// payload and the final `\n`.
    #[test]
    fn short_writes_still_send_the_whole_frame() -> TestResult {
        let big = big_payload();
        for payload in ["", "x", "one\ntwo\n", &big] {
            let mut out = FrameWriter::new(Trickle::default());
            out.send_ok(payload, true, 3, 17, 2)?;
            assert_eq!(out.inner.0, framed_ok(payload), "{payload:?}");
        }
        Ok(())
    }

    #[test]
    fn request_lines_are_bounded() -> TestResult {
        let mut buf = Vec::new();
        let wire = b"STATS\r\n\nlast";
        let mut r = &wire[..];
        assert_eq!(read_request_line(&mut r, &mut buf)?, Some("STATS"));
        assert_eq!(read_request_line(&mut r, &mut buf)?, Some(""));
        assert_eq!(read_request_line(&mut r, &mut buf)?, Some("last"));
        assert_eq!(read_request_line(&mut r, &mut buf)?, None);
        // Exactly the bound, then its newline: accepted.
        let mut fits = vec![b'x'; MAX_REQUEST_LINE];
        fits.push(b'\n');
        let line = read_request_line(&mut &fits[..], &mut buf)?.ok_or("missing line")?;
        assert_eq!(line.len(), MAX_REQUEST_LINE);
        // One byte more, newline or not: refused.
        let over = vec![b'x'; MAX_REQUEST_LINE + 1];
        assert!(matches!(
            read_request_line(&mut &over[..], &mut buf),
            Err(ProtoError::LineTooLong)
        ));
        let mut header = b"POST /query HTTP/1.1\r\nX-Pad: ".to_vec();
        header.extend_from_slice(&over);
        assert!(matches!(
            read_http_request_rest(&mut &header[22..]),
            Err(ProtoError::LineTooLong)
        ));
        Ok(())
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("MATCH+m-nodes"), "MATCH m-nodes");
        assert_eq!(percent_decode("a%20b%3D%27c%27"), "a b='c'");
        assert_eq!(percent_decode("100%"), "100%", "dangling % passes through");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex passes through");
    }
}
