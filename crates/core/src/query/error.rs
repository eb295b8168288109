//! Errors for graph queries.

use std::fmt;

/// Errors raised by graph transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// ZoomOut on a module with no invocations in the graph.
    UnknownModule(String),
    /// ZoomOut on a module that is already zoomed out.
    AlreadyZoomedOut(String),
    /// ZoomIn on a module that is not zoomed out.
    NotZoomedOut(String),
    /// A node id referenced a deleted or hidden node.
    NodeNotVisible(crate::graph::NodeId),
    /// The zoom stash table is full (the last index is reserved for
    /// retired composites).
    StashOverflow,
    /// A circuit pass ([`crate::query::circuit`]) ran past its deadline.
    DeadlineExceeded,
    /// A node the circuit evaluator cannot read: an invocation node
    /// that names no invocation, or a node on an ingredient cycle.
    Malformed(crate::graph::NodeId, &'static str),
    /// A value's expanded polynomial would pass this many monomials and
    /// tokens ([`crate::query::Limits`]).
    TooLarge { limit: u64 },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownModule(m) => write!(f, "module '{m}' has no invocations"),
            QueryError::AlreadyZoomedOut(m) => write!(f, "module '{m}' is already zoomed out"),
            QueryError::NotZoomedOut(m) => write!(f, "module '{m}' is not zoomed out"),
            QueryError::NodeNotVisible(n) => write!(f, "node {n} is deleted or hidden"),
            QueryError::StashOverflow => {
                write!(f, "zoom stash table is full (index u32::MAX is reserved)")
            }
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::Malformed(n, why) => write!(f, "node {n} {why}"),
            QueryError::TooLarge { limit } => write!(
                f,
                "the value's expanded polynomial would pass {limit} monomials and tokens"
            ),
        }
    }
}

impl std::error::Error for QueryError {}
