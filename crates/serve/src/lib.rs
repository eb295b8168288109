//! # lipstick-serve — ProQL over the network
//!
//! After `lipstick-proql`, the planner and executors are still
//! library-only: nothing can query provenance without linking Rust.
//! This crate serves a [`lipstick_proql::Session`] — resident or paged
//! — over TCP, std-only (`std::net`, and an `std::sync::mpsc` channel
//! handing connections to the workers), with two wire formats on **one
//! listener**:
//!
//! - a newline-delimited **line protocol** (persistent connections, one
//!   statement per line, counted-line response framing), and
//! - a minimal **HTTP/1.1 shim** (`POST /query`, `GET /explain?q=…`)
//!   answering JSON, one request per connection.
//!
//! Read-only statements (`MATCH`, walks, `WHY`, `DEPENDS`, `EVAL`,
//! `EXPLAIN`, `STATS`, set ops) execute concurrently on a worker pool
//! through the session's shared-reference path
//! ([`lipstick_proql::Session::run_read`]); mutating statements
//! (`DELETE … PROPAGATE`, zooms, index maintenance, `COMPACT`)
//! run one at a time under the writer mutex: each is prepared beside
//! the readers — the append backend's `fsync` included — and takes the
//! write lock only to publish it and bump the **write epoch** (see
//! [`server`]).
//!
//! Repeated exploratory queries are the interactive workload's common
//! case, so results are cached in a **plan-keyed LRU**
//! ([`cache::QueryCache`]): the key is the parsed statement (spelling
//! differences normalize away), the value is the fully rendered output,
//! and every entry is stamped with the write epoch — a mutation
//! invalidates the whole cache by making every stamp stale. (The
//! session's reach index, by contrast, *survives* mutations: it is
//! repaired in place, so post-mutation misses re-execute against an
//! index that is still warm.) Responses report `cache_hit` so clients
//! (and the `proql_server` bench) can see the cache working.
//!
//! ```no_run
//! use lipstick_proql::Session;
//! use lipstick_serve::{Server, ServerConfig};
//!
//! fn main() -> Result<(), Box<dyn std::error::Error>> {
//!     let session = Session::open("provenance.lpstk")?;
//!     let handle = Server::new(session, ServerConfig::default()).serve("127.0.0.1:0")?;
//!     println!("serving ProQL on {}", handle.addr());
//!     handle.shutdown();
//!     Ok(())
//! }
//! ```
//!
//! The request paths are **panic-free by construction**: malformed
//! wire bytes surface as typed [`proto::ProtoError`] values, and
//! `xtask lint` (run in CI) fails the build on any `unwrap()` /
//! `expect()` / `panic!` reintroduced into this crate's non-test code.

pub mod cache;
pub mod client;
pub mod proto;
pub mod qlog;
pub mod server;

pub use cache::QueryCache;
pub use client::Client;
pub use proto::{ProtoError, Reply};
pub use qlog::{QueryEvent, QueryLog, QueryLogConfig};
pub use server::{Server, ServerConfig, ServerHandle};
