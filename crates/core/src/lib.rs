//! # lipstick-core — provenance semirings, graphs, and graph transformations
//!
//! This crate is the paper's primary contribution ("Putting Lipstick on
//! Pig", VLDB 2011): a fine-grained provenance model for workflows whose
//! modules are specified in Pig Latin.
//!
//! It has three layers:
//!
//! 1. **Semiring provenance** ([`semiring`]): the N\[X\] provenance
//!    polynomials of Green/Karvounarakis/Tannen (PODS'07), extended with
//!    the δ duplicate-elimination operator and the ⊗ tensor construction
//!    for aggregate values (Amsterdamer/Deutch/Tannen, PODS'11). Generic
//!    [`semiring::Semiring`] implementations (counting, boolean, tropical,
//!    lineage, why-provenance) let provenance expressions be *evaluated*
//!    under different interpretations via the homomorphism property.
//! 2. **Provenance graphs** ([`graph`]): the paper's compact graph
//!    representation (§3). Nodes are p-nodes (provenance) or v-nodes
//!    (values); kinds cover workflow inputs, module invocations (`m`),
//!    module inputs (`i`), outputs (`o`), state (`s`), semiring operations
//!    (+, ·, δ), aggregation (op nodes and ⊗ tensors), constants, and
//!    black boxes. The [`graph::Tracker`] trait lets an evaluator be
//!    generic over whether provenance is captured at all — the "without
//!    provenance" arm of the paper's Figure 5 uses [`graph::NoTracker`].
//! 3. **Graph transformations** ([`query`]): ZoomIn / ZoomOut (§4.1),
//!    deletion propagation (§4.2), subgraph extraction and dependency
//!    queries (§4.3 / §5.1).

pub mod agg;
pub mod graph;
pub mod obs;
pub mod query;
pub mod semiring;
pub mod store;

pub use graph::{
    GraphTracker, InvocationId, NoTracker, Node, NodeId, NodeKind, NodeRef, ProvGraph, Role,
    Tracker,
};
pub use semiring::{Polynomial, ProvExpr, Semiring, Token};
pub use store::GraphStore;
