//! # ProQL — a declarative query language over provenance graphs
//!
//! The paper's Query Processor (§5.1) exposes three hard-coded queries:
//! subgraph extraction, dependency tests, and deletion propagation.
//! ProQL turns those primitives — plus zooming, semiring evaluation,
//! predicate-based node selection, bounded-depth traversals, and set
//! operations — into a small composable language, so new provenance
//! workloads don't require new engine code.
//!
//! ## Statement forms
//!
//! ```text
//! SUBGRAPH OF #42                          -- §5.1 subgraph query
//! WHY 'C2'                                 -- symbolic provenance expression
//! DEPENDS(#42, 'C2')                       -- §4.3 dependency test
//! DELETE 'C2' PROPAGATE                    -- §4.2 deletion propagation
//! ZOOM OUT TO Mdealer1, Magg               -- §4.1 ZoomOut
//! ZOOM IN                                  -- §4.1 ZoomIn (all zoomed modules)
//! EVAL #42 IN counting                     -- semiring evaluation
//! MATCH m-nodes WHERE module = 'Mdealer1'  -- node selection
//! MATCH base-nodes WHERE token LIKE 'C%'   -- %/_ patterns (also NOT LIKE)
//! MATCH o-nodes GROUP BY module ORDER BY count DESC LIMIT 3
//! COUNT(*) MATCH base-nodes                -- scalar aggregates
//! COUNT(DISTINCT module) MATCH nodes
//! MATCH nodes ORDER BY execution DESC LIMIT 5
//! ANCESTORS OF #42 DEPTH 3                 -- bounded-depth traversal
//! DESCENDANTS OF 'C2' WHERE kind = 'module_output'
//! MATCH base-nodes INTERSECT ANCESTORS OF #42
//! BUILD INDEX / DROP INDEX                 -- §5.1 reachability closure
//! EXPLAIN DEPENDS(#42, 'C2')              -- show the chosen physical plan
//! EXPLAIN ANALYZE MATCH base-nodes        -- run it, report per-operator actuals
//! STATS                                    -- graph statistics
//! ```
//!
//! ## Pipeline
//!
//! Text goes through [`lexer`] → [`parser`] (typed [`ast`]) →
//! [`planner`] (cost-aware physical [`plan`]) → [`exec`]. There is one
//! planner and one read executor, both generic over
//! [`GraphStore`](lipstick_core::store::GraphStore): the planner
//! chooses from what the store *offers* — the session's optional
//! [`lipstick_core::query::ReachIndex`] (a bidirectional closure, so
//! unbounded `ANCESTORS OF` and `DESCENDANTS OF` are symmetric index
//! lookups), postings lists where the store keeps them, the invocation
//! table otherwise — never from which backend it is. It fuses
//! consecutive zoom statements and pushes `WHERE` predicates into
//! traversals instead of post-filtering. Mutating statements repair the
//! closure in place (deletion subtracts the dead cone; zooms remap the
//! affected region) rather than dropping it, and `UNION`/`INTERSECT`
//! chains run their flattened branches left to right.
//! [`session::Session`] owns the graph (in-memory or loaded from a
//! provenance log via `lipstick-storage`), drives the pipeline, and is
//! the only place that knows which backend it holds.
//!
//! ## Resident, paged and append sessions
//!
//! [`Session::load`] decodes the whole log up front. [`Session::open`]
//! and [`Session::open_append`] instead keep a v2 (footer-indexed) log
//! **paged**, through one store, `lipstick_storage::AppendLog`: walks
//! fault records only where a filter needs them, so cold-start cost
//! scales with what the query touches, not with graph size. Every store
//! keeps module and kind postings — the footer's, lent as they are until
//! a tail changes them, and the resident graph's (built on first use) —
//! so on every session
//! the planner turns a narrowed `MATCH` into postings reads, and
//! `EXPLAIN` reports how many of the store's records the plan will
//! read. A paged session is a read-only snapshot of its
//! log: `DELETE`, `ZOOM` and [`Session::ingest`] fail with
//! [`ProqlError::Snapshot`] before reading a record, while `BUILD
//! INDEX` (built over the log, nothing decoded into a graph), `DROP
//! INDEX` and `COMPACT` answer as on the other backends.
//! [`Session::load`] makes the in-memory copy to change for what-if
//! analysis; [`Session::open_append`] commits changes durably to a WAL
//! tail beside the sealed log. Both `open` and `load` refuse a log
//! whose tail still holds acked changes ([`ProqlError::LiveTail`]), and
//! `open` refuses a v1 log, which has no footer
//! ([`ProqlError::UnindexedLog`]).
//!
//! Every change takes one path on every backend that can change.
//! [`Session::prepare_write`] decides it once against the store — the
//! deletion cone, the zoom plan, zoom-in validation, the nodes it
//! touches, the reply — and the store stages it (a durable tail record
//! on the append log). [`Session::publish_write`] applies it: the
//! append log publishes the record, the resident graph runs
//! [`ProvGraph::apply`](lipstick_core::ProvGraph::apply).
//!
//! ## Result shaping
//!
//! Node-set statements accept `LIKE`/`NOT LIKE` wildcard patterns
//! (`%`/`_`, on any string field including the new `token`),
//! `COUNT(*)` / `COUNT(DISTINCT f)` projections, `GROUP BY`, `ORDER
//! BY`, and `LIMIT`. Shaping is
//! [`GraphStore`](lipstick_core::store::GraphStore)-generic like the
//! executor that calls it, so resident and paged answers cannot
//! drift; `tests/differential.rs` locks the property down by running
//! generated statements (see [`testgen`]) against a resident session,
//! a paged session, and a `lipstick-serve` round trip, shrinking any
//! divergence to a minimal failing statement. On the paged side, a
//! token-demanding predicate narrows the scan to the token-bearing
//! kind postings, `module LIKE` unions matching modules' postings, and
//! a pushed-down `LIMIT` early-exits id-ordered scans.
//!
//! ## Observability
//!
//! `EXPLAIN ANALYZE <stmt>` executes a read-only statement under a span
//! tracer ([`lipstick_core::obs`]) and renders the chosen plan next to
//! per-operator **actuals** — rows produced, nodes visited, backend
//! records decoded (paged sessions), wall time — on every backend.
//! Every statement a [`Session`] runs also feeds the process-wide
//! metrics registry (`lipstick_proql_statements_total`,
//! `lipstick_proql_statement_us`, index build/repair series), which
//! `lipstick-serve` exposes at `GET /metrics`.
//!
//! ## Static analysis
//!
//! `CHECK <stmt>` and `EXPLAIN LINT <stmt>` run the [`analyze`] pass —
//! name resolution against the session schema with did-you-mean
//! suggestions, type and satisfiability checking of predicates, and
//! cost lints — **without executing** the statement. Diagnostics are
//! typed values ([`analyze::Diagnostic`]: code, severity, byte span
//! into the original source, message, optional suggestion) rendered
//! byte-identically by every backend and both serve protocols. The
//! spans come from the one parse: as it reads the statement, the
//! [`parser`] records where each construct the analyzer reports on
//! sits, so each diagnostic can underline the exact offending token.

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
mod filter;
pub mod lexer;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod result;
pub mod session;
mod shape;
pub mod testgen;

pub use analyze::{Diagnostic, Diagnostics, Severity};
pub use error::ProqlError;
pub use result::{NodeSetResult, QueryOutput, TableResult};
pub use session::{render_memory_report, MemoryComponent, PreparedWrite, Session};
