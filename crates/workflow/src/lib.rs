//! # lipstick-workflow — the workflow model (paper §2.2, §3.1)
//!
//! Workflows are connected DAGs whose nodes are *module instances*: a
//! module is specified by input/state/output schemas plus two Pig Latin
//! queries, `Qstate : Sin × Sstate → Sstate` (state manipulation) and
//! `Qout : Sin × Sstate → Sout` (output). Edges carry relation names
//! from a producer's `Sout` to a consumer's `Sin`. Input nodes receive
//! their `Sin` from outside.
//!
//! [`exec`] implements the reference semantics of Definition 2.3: pick
//! a topological order, run each module's queries on its input and
//! current state, commit the new state, copy outputs along edges —
//! and, with a [`lipstick_core::GraphTracker`], capture workflow-level
//! provenance: `m` nodes per invocation, `i`/`o` nodes per module
//! input/output tuple, `s` nodes per state tuple (§3.1). Module
//! scripts compile once per workflow and UDF registry; the plans live on
//! the [`Workflow`].
//!
//! [`parallel`] is the Hadoop substitute for the paper's Figure 5(c):
//! ready modules execute on a pool of `reducers` worker threads, each
//! building a local provenance fragment that is merged into the global
//! graph when the module commits (serializable, so the input-output
//! semantics equals a reference order — §2.2's serializability note).

pub mod dag;
pub mod error;
pub mod exec;
pub mod module;
pub mod parallel;
#[cfg(test)]
mod tests;

pub use dag::{NodeIdx, Workflow, WorkflowBuilder};
pub use error::{Result, WfError};
pub use exec::{execute_once, execute_sequence, ExecutionOutput, WorkflowInput, WorkflowState};
pub use module::ModuleSpec;
