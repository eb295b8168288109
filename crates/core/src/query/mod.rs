//! Graph transformation operations and provenance queries (paper §4).
//!
//! - [`zoom`]: ZoomOut / ZoomIn between fine- and coarse-grained views;
//! - [`deletion`]: deletion propagation for what-if analysis;
//! - [`change`]: either decision as a [`GraphChange`], and the resident
//!   graph's applier;
//! - [`subgraph`]: ancestor/descendant/sibling subgraph extraction
//!   (the Query Processor's third query, §5.1);
//! - [`dependency`]: "does n depend on n′?" via deletion propagation;
//! - [`circuit`]: a p-node's provenance in any semiring, or as a
//!   symbolic expression, in one pass over its shared visible cone;
//! - [`reach`]: an optional precomputed reachability index (the §5.1
//!   memory/time trade-off, measured by the `ablation_reach` bench).

pub mod change;
pub mod circuit;
pub mod deletion;
pub mod dependency;
pub mod error;
pub mod reach;
pub mod subgraph;
pub mod zoom;

pub use change::GraphChange;
pub use circuit::{eval_node, shared_lines, Circuit, Limits, Symbolic, Valued};
pub use deletion::{propagate_deletion, propagate_deletion_inplace, DeletionReport};
pub use dependency::depends_on;
pub use error::QueryError;
pub use reach::ReachIndex;
pub use subgraph::{
    ancestors_bounded, descendants_bounded, subgraph, traverse, BoundedResult, Direction,
    SubgraphResult, TraversalStats,
};
pub use zoom::{apply_zoom_out, plan_zoom_out, zoom_in, zoom_out, CompositePlan, ZoomModulePlan};
