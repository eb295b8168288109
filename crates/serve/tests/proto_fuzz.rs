//! Seeded mutation fuzzing of the wire decoders: framed `OK` / `ERR` /
//! `BUSY` replies fed to `read_reply`, and HTTP requests fed to
//! `classify_first_line` and `read_http_request_rest`.
//!
//! Each case frames a few random replies and requests, then applies
//! `MUTATIONS` rounds of bit flips, byte overwrites, truncations and
//! spliced large numbers to each. The assertions: no decoder panics; no
//! decoder makes an allocation larger than a small multiple of its
//! input, so no declared count or `Content-Length` sizes one; and
//! `read_reply` returns what the line-by-line reader it replaced
//! returns (kept below as the oracle), leaving the same bytes unread.
//! The budget is `PROPTEST_CASES` cases × `MUTATIONS`, pinned in CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufRead;

use lipstick_serve::proto::{
    classify_first_line, read_http_request_rest, read_reply, write_busy, write_err, write_ok,
    FirstLine, ProtoError, Reply,
};
use proptest::prelude::*;
use rand::{mutate, rngs::StdRng, SeedableRng};

/// Mutated inputs per framing per case.
const MUTATIONS: usize = 64;

/// Records the largest single allocation this thread asks for.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged, so the caller's `GlobalAlloc` contract
// is the one `System` relies on; recording a size touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// `f`'s result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The most a decoder may allocate at once for `input_len` bytes: 16
/// per input byte (escaped `{:?}` error text is the widest) plus a
/// constant. Nothing the input merely declares may size an allocation.
fn allocation_bound(input_len: usize) -> usize {
    16 * input_len + 1024
}

/// Run `decode` on `input` and check its allocations stay in bound.
fn bounded<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let (out, largest) = largest_allocation(|| decode(input));
    assert!(
        largest <= allocation_bound(input.len()),
        "{what}: a {largest}-byte allocation from {} input bytes",
        input.len()
    );
    out
}

/// A payload of up to 12 lines over an alphabet with blank lines,
/// `\r`, multi-byte characters and protocol keywords.
fn payload(rng: &mut StdRng) -> String {
    const PIECES: [&str; 8] = ["N12", " ", "\n", "\r", "é", "OK 3", "cache_hit=1", ""];
    (0..rng.below(24)).map(|_| *rng.pick(&PIECES)).collect()
}

/// Two framed replies back to back, as a pipelined connection would
/// see them.
fn framed_replies(rng: &mut StdRng) -> Vec<u8> {
    let mut wire = Vec::new();
    for _ in 0..2 {
        let framed = match rng.below(4) {
            0 => write_err(&mut wire, &payload(rng)),
            1 => write_busy(&mut wire, rng.next_u64() % 10_000),
            _ => write_ok(
                &mut wire,
                &payload(rng),
                rng.below(2) == 1,
                rng.next_u64() % 1_000,
                rng.next_u64() % 100_000,
                rng.next_u64() % 100,
            ),
        };
        assert!(framed.is_ok(), "a Vec never fails a write");
    }
    wire
}

/// An HTTP request the shim answers.
fn http_request(rng: &mut StdRng) -> Vec<u8> {
    let body = payload(rng);
    match rng.below(3) {
        0 => format!(
            "POST /query HTTP/1.1\r\nHost: lipstick\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        1 => "GET /explain?q=MATCH+base-nodes HTTP/1.1\r\nHost: lipstick\r\n\r\n".to_string(),
        _ => format!("GET /slow?n={} HTTP/1.0\r\n\r\n", rng.below(50)),
    }
    .into_bytes()
}

/// The line-by-line `read_reply` that the single-buffer one replaced:
/// a `String` per payload line, collected and joined.
fn oracle_read_reply(r: &mut impl BufRead) -> Result<Option<Reply>, ProtoError> {
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
    let mut time_us = 0u64;
    let mut reads = 0u64;
    for field in fields {
        if let Some(v) = field.strip_prefix("time_us=") {
            time_us = v.parse().map_err(|_| parse_fail("time_us"))?;
        } else if let Some(v) = field.strip_prefix("reads=") {
            reads = v.parse().map_err(|_| parse_fail("reads"))?;
        }
    }
    let mut body_lines = Vec::with_capacity(nlines.min(1024));
    for _ in 0..nlines {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(ProtoError::UnexpectedEof("mid-payload"));
        }
        body_lines.push(line.trim_end_matches(['\r', '\n']).to_string());
    }
    Ok(Some(Reply::Ok {
        cache_hit,
        epoch,
        time_us,
        reads,
        body: body_lines.join("\n"),
    }))
}

/// Every reply on `wire`, read until EOF or the first error, with the
/// bytes left unread after each; errors compare by their message.
fn read_all(
    wire: &[u8],
    read: impl Fn(&mut &[u8]) -> Result<Option<Reply>, ProtoError>,
) -> Vec<(Result<Option<Reply>, String>, usize)> {
    let mut r = wire;
    let mut seen = Vec::new();
    loop {
        let got = read(&mut r).map_err(|e| e.to_string());
        let stop = !matches!(got, Ok(Some(_)));
        seen.push((got, r.len()));
        if stop {
            return seen;
        }
    }
}

/// Classify the first line and read the rest as the server does.
fn decode_http(wire: &[u8]) {
    let mut r = wire;
    let mut first = Vec::new();
    if r.read_until(b'\n', &mut first).is_err() {
        return;
    }
    let first = String::from_utf8_lossy(&first);
    if let FirstLine::Http { .. } = classify_first_line(first.trim_end_matches(['\r', '\n'])) {
        if let Ok(Some(body)) = read_http_request_rest(&mut r) {
            assert!(body.len() <= 3 * wire.len(), "body longer than its input");
        }
    }
}

proptest! {
    #[test]
    fn mutated_frames_never_panic_or_overallocate(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let replies = framed_replies(&mut rng);
        let request = http_request(&mut rng);
        for _ in 0..MUTATIONS {
            let wire = mutate(&replies, &mut rng);
            let read = bounded("read_reply", &wire, |w| read_all(w, |r| read_reply(r)));
            let oracle = read_all(&wire, |r| oracle_read_reply(r));
            prop_assert_eq!(read, oracle);
            bounded("classify_first_line", &wire, |w| {
                classify_first_line(&String::from_utf8_lossy(w))
            });

            let wire = mutate(&request, &mut rng);
            bounded("read_http_request_rest", &wire, decode_http);
        }
    }
}

/// The allocation check bites: the line-by-line reader sized a vector
/// from the declared line count, and `Content-Length` used to size the
/// HTTP body before it arrived.
#[test]
fn a_declared_count_would_break_the_allocation_bound() {
    let wire = b"OK 99999 cache_hit=0 epoch=1\nonly line\n";
    let (_, oracle) = largest_allocation(|| oracle_read_reply(&mut &wire[..]));
    assert!(oracle > allocation_bound(wire.len()), "{oracle}");
    let _ = bounded("read_reply", wire, |w| read_reply(&mut &w[..]));
    let (_, upfront) = largest_allocation(|| vec![0u8; 999_999]);
    let post = b"POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\nSTATS";
    assert!(upfront > allocation_bound(post.len()));
    bounded("read_http_request_rest", post, decode_http);
}
