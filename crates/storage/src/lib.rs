//! # lipstick-storage — provenance persistence
//!
//! The Lipstick architecture (§5.1) separates the **Provenance
//! Tracker**, which writes provenance-annotated data to the filesystem
//! during workflow execution, from the **Query Processor**, which reads
//! it back and builds the in-memory provenance graph. This crate is
//! that boundary: a versioned, varint-packed binary format for
//! provenance graphs, plus the loader whose performance Figure 6
//! measures ("Building the Provenance Graph").
//!
//! The format is append-friendly: nodes are written in id order with
//! their predecessor lists, so the loader reconstructs both edge
//! directions in one pass.
//!
//! Every decoder reads through the fallible [`Reader`], so corrupt input
//! is a [`StorageError::Corrupt`], never a panic. Each on-disk structure
//! has one codec that every backend shares: the file header and the
//! invocation table in [`log`], the node record ([`codec::NodeRecord`])
//! in [`codec`].
//!
//! ```
//! use lipstick_core::graph::GraphTracker;
//! use lipstick_core::Tracker;
//! use lipstick_storage::{encode_graph, decode_graph};
//!
//! let mut t = GraphTracker::new();
//! let a = t.base("a");
//! let b = t.base("b");
//! t.plus(&[a, b]);
//! let g = t.finish();
//! let bytes = encode_graph(&g).unwrap();
//! let g2 = decode_graph(&bytes).unwrap();
//! assert_eq!(g.visible_signature(), g2.visible_signature());
//! ```

// Lets the unit tests share files with the integration tests, which
// name this crate from outside.
#[cfg(test)]
extern crate self as lipstick_storage;

pub mod append;
pub mod codec;
pub mod error;
pub mod footer;
pub mod io;
pub mod log;
pub mod paged;
pub mod reader;
pub mod tail;
pub mod varint;

pub use append::{live_tail_records, AppendLog, PreparedCompact, PreparedRecord};
pub use error::{Result, StorageError};
pub use footer::{FooterWriter, LogIndex};
pub use io::{default_io, FaultIo, FaultKind, StdIo, StorageIo};
pub use log::{
    decode_graph, encode_graph, encode_graph_v2, load_graph, write_graph, write_graph_v2,
    write_graph_v2_io,
};
pub use paged::PagedLog;
pub use reader::Reader;
pub use tail::TailRecord;
