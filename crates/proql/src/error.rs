//! ProQL error type.

use std::fmt;

use lipstick_core::query::QueryError;

/// Anything that can go wrong between source text and query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProqlError {
    /// Lexical error with position and message.
    Lex { pos: usize, message: String },
    /// Syntax error with message (includes what was expected).
    Parse(String),
    /// A node reference did not resolve against the session graph.
    UnknownNode(String),
    /// Unknown semiring name in `EVAL … IN <name>`.
    UnknownSemiring(String),
    /// Unknown node class in `MATCH <class>`.
    UnknownClass(String),
    /// Unknown predicate field.
    UnknownField(String),
    /// Engine-level query failure.
    Query(QueryError),
    /// Loading a provenance log failed.
    Storage(String),
    /// A mutating statement reached a read-only execution path
    /// ([`crate::Session::run_read`]).
    ReadOnly(String),
    /// A graph change (`DELETE`, `ZOOM`, ingest) on a paged session
    /// ([`crate::Session::open`]), which is a read-only snapshot of its
    /// log.
    Snapshot(String),
    /// [`crate::Session::open`] or [`crate::Session::load`] of a log
    /// whose `.tail` sidecar still holds this many acked mutations: the
    /// base file alone would answer from before them.
    LiveTail(usize),
    /// [`crate::Session::open`] of a v1 log, which has no footer index
    /// to page from.
    UnindexedLog,
    /// The request deadline passed mid-execution; the statement was
    /// cancelled cooperatively at a span boundary, or inside the circuit
    /// pass behind `WHY` and `EVAL`. Only read statements
    /// carry deadlines — a half-applied mutation is never abandoned.
    DeadlineExceeded,
    /// An `EVAL … IN why` answer would pass this many monomials and
    /// tokens in its expansion (`lipstick_core::query::Limits`).
    TooLarge { limit: u64 },
}

impl fmt::Display for ProqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProqlError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            ProqlError::Parse(m) => write!(f, "parse error: {m}"),
            ProqlError::UnknownNode(r) => write!(f, "unknown node reference {r}"),
            ProqlError::UnknownSemiring(s) => write!(
                f,
                "unknown semiring '{s}' (expected counting, boolean, tropical, lineage, or why)"
            ),
            ProqlError::UnknownClass(c) => write!(
                f,
                "unknown node class '{c}' (expected nodes, m-nodes, i-nodes, o-nodes, s-nodes, \
                 base-nodes, p-nodes, or v-nodes)"
            ),
            ProqlError::UnknownField(c) => write!(
                f,
                "unknown predicate field '{c}' (expected module, kind, role, execution, or token)"
            ),
            ProqlError::Query(e) => write!(f, "query error: {e}"),
            ProqlError::Storage(m) => write!(f, "storage error: {m}"),
            ProqlError::ReadOnly(stmt) => write!(
                f,
                "statement mutates the session and cannot run on a read-only handle: {stmt}"
            ),
            ProqlError::Snapshot(what) => write!(
                f,
                "{what} refused: a paged session is a read-only snapshot of its log \
                 (Session::load decodes an in-memory copy for what-if changes; \
                 Session::open_append makes changes durable)"
            ),
            ProqlError::LiveTail(records) => write!(
                f,
                "the log's .tail sidecar holds {records} acked mutation(s) the base file \
                 does not show: open it with Session::open_append, or run COMPACT there first"
            ),
            ProqlError::UnindexedLog => write!(
                f,
                "a v1 log has no footer index to page from: Session::load decodes it whole"
            ),
            ProqlError::DeadlineExceeded => {
                f.write_str("deadline exceeded: statement cancelled before completion")
            }
            ProqlError::TooLarge { limit } => write!(
                f,
                "answer too large: it would pass {limit} monomials and tokens in the expanded \
                 polynomial, the bound on EVAL … IN why answers (EVAL … IN counting, boolean, \
                 tropical or lineage still answers)"
            ),
        }
    }
}

impl std::error::Error for ProqlError {}

impl From<QueryError> for ProqlError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::DeadlineExceeded => ProqlError::DeadlineExceeded,
            QueryError::TooLarge { limit } => ProqlError::TooLarge { limit },
            e => ProqlError::Query(e),
        }
    }
}

pub type Result<T> = std::result::Result<T, ProqlError>;
