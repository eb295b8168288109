//! Parallel workflow execution — the Hadoop substitute for Figure 5(c).
//!
//! The paper controls parallelism with Pig's `PARALLEL` clause (number
//! of reducers) on a 27-node Hadoop cluster. Here, ready workflow
//! modules execute on a pool of `reducers` worker threads. Each worker
//! records provenance into a [`ShardTracker`]; on completion the
//! coordinator absorbs the shard into the global tracker (a short
//! critical section that models the reducer-commit overhead) and
//! schedules newly-ready modules. Data semantics are serializable and
//! identical to the sequential executor — a property the tests check.
//! Module plans are the sequential executor's: compiled once per
//! workflow and UDF registry and shared by the workers by reference.

use std::collections::HashMap;
use std::sync::{mpsc, Mutex, PoisonError};

use lipstick_core::graph::shard::ShardTracker;
use lipstick_core::{GraphTracker, NoTracker, NodeId, Tracker};
use lipstick_piglatin::eval::{ARelation, ATuple, Ann};
use lipstick_piglatin::plan::Compiled;
use lipstick_piglatin::udf::UdfRegistry;

use crate::dag::{NodeIdx, Workflow};
use crate::error::Result;
use crate::exec::{
    invoke_module, route, take_edge_inputs, ExecutionOutput, Staged, WorkflowInput, WorkflowState,
};

/// A tracker that can hand out worker shards and absorb them back.
pub trait ParallelTracker: Tracker {
    /// Worker-local tracker type.
    type Shard: Tracker<Ref = Self::Ref> + Send;

    /// Create an empty shard.
    fn make_shard(&self) -> Self::Shard;

    /// Import a global ref into a shard (placeholder id).
    fn import(shard: &mut Self::Shard, global: Self::Ref) -> Self::Ref;

    /// Absorb a finished shard; returns a function-table mapping shard
    /// refs to global refs.
    fn absorb(&mut self, shard: Self::Shard) -> RemapTable<Self::Ref>;
}

/// Shard→global reference mapping. `None` is the identity (no-op
/// trackers have nothing to remap).
#[derive(Debug)]
pub struct RemapTable<R>(Option<Vec<R>>);

impl RemapTable<NodeId> {
    fn map(&self, r: NodeId) -> NodeId {
        match &self.0 {
            Some(table) => table[r.index()],
            None => r,
        }
    }
}

impl ParallelTracker for NoTracker {
    type Shard = NoTracker;
    fn make_shard(&self) -> NoTracker {
        NoTracker
    }
    fn import(_shard: &mut NoTracker, _global: ()) {}
    fn absorb(&mut self, _shard: NoTracker) -> RemapTable<()> {
        RemapTable(None)
    }
}

impl ParallelTracker for GraphTracker {
    type Shard = ShardTracker;
    fn make_shard(&self) -> ShardTracker {
        ShardTracker::new()
    }
    fn import(shard: &mut ShardTracker, global: NodeId) -> NodeId {
        shard.import(global)
    }
    fn absorb(&mut self, shard: ShardTracker) -> RemapTable<NodeId> {
        RemapTable(Some(self.absorb_shard(shard)))
    }
}

/// Remap every provenance reference in a relation.
fn remap_relation(rel: ARelation<NodeId>, table: &RemapTable<NodeId>) -> ARelation<NodeId> {
    let mut out = ARelation::empty(rel.schema.clone());
    out.rows.reserve(rel.rows.len());
    for row in rel.rows {
        out.rows.push(ATuple {
            tuple: row.tuple,
            ann: Ann {
                prov: table.map(row.ann.prov),
                vrefs: row
                    .ann
                    .vrefs
                    .iter()
                    .map(|(i, r)| (*i, table.map(*r)))
                    .collect(),
            },
            // members are not routed across module boundaries
            members: Vec::new(),
        });
    }
    out
}

/// Import every provenance reference of a relation into a shard.
fn import_relation<T: ParallelTracker>(
    rel: &ARelation<T::Ref>,
    shard: &mut T::Shard,
) -> ARelation<T::Ref> {
    let mut out = ARelation::empty(rel.schema.clone());
    out.rows.reserve(rel.rows.len());
    for row in &rel.rows {
        out.rows.push(ATuple {
            tuple: row.tuple.clone(),
            ann: Ann {
                prov: T::import(shard, row.ann.prov),
                vrefs: row
                    .ann
                    .vrefs
                    .iter()
                    .map(|(i, r)| (*i, T::import(shard, *r)))
                    .collect(),
            },
            members: Vec::new(),
        });
    }
    out
}

/// Run one workflow execution with module-level parallelism on
/// `reducers` worker threads. Specializations exist because shard
/// absorption needs access to the concrete tracker; the generic entry
/// point is [`execute_once_parallel`].
///
/// Plans come from the same per-workflow, per-registry cache as the
/// sequential executor's, and every module compiles before the first
/// one is dispatched. A failure follows
/// [`execute_once`](crate::exec::execute_once)'s rule: the failed
/// module's state is left as it was, modules committed before the
/// failure keep their new state, and a failed module's shard is
/// dropped, never absorbed.
pub fn execute_once_parallel<T: ParallelTracker + Send>(
    wf: &Workflow,
    input: &WorkflowInput,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    udfs: &UdfRegistry,
    execution: u32,
    reducers: usize,
) -> Result<ExecutionOutput<T::Ref>>
where
    T::Ref: Send + Sync,
    RemapTable<T::Ref>: RefMapper<T::Ref>,
{
    let reducers = reducers.max(1);
    let plans = wf.plans(udfs)?;
    let plans: &[Compiled] = &plans;

    // Scheduling state.
    let n = wf.len();
    let mut indeg = vec![0usize; n];
    for e in wf.edges() {
        indeg[e.to.index()] += 1;
    }
    let mut staged: Staged<T::Ref> = HashMap::new();
    let mut result = ExecutionOutput {
        outputs: HashMap::new(),
    };

    struct Task<T: ParallelTracker> {
        idx: NodeIdx,
        shard: T::Shard,
        edge_inputs: HashMap<String, ARelation<T::Ref>>,
        state_rels: HashMap<String, ARelation<T::Ref>>,
    }
    struct Done<T: ParallelTracker> {
        idx: NodeIdx,
        shard: T::Shard,
        outputs: HashMap<String, ARelation<T::Ref>>,
        rebound: Vec<(String, ARelation<T::Ref>)>,
    }

    let (task_tx, task_rx) = mpsc::channel::<Task<T>>();
    let task_rx = Mutex::new(task_rx);
    let (done_tx, done_rx) = mpsc::channel::<Result<Done<T>>>();

    let mut ready: Vec<NodeIdx> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| NodeIdx(i as u32))
        .collect();
    let mut completed = 0usize;

    std::thread::scope(|scope| -> Result<()> {
        for _ in 0..reducers {
            let task_rx = &task_rx;
            let done_tx = done_tx.clone();
            scope.spawn(move || loop {
                // Not `while let`: the guard must drop before the work.
                let next = task_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok(mut task) = next else { break };
                let node = wf.node(task.idx);
                let outcome = invoke_module(
                    &node.instance,
                    &node.spec,
                    &plans[task.idx.index()],
                    wf.input_nodes().contains(&task.idx).then_some(input),
                    task.edge_inputs,
                    &task.state_rels,
                    &mut task.shard,
                    udfs,
                    execution,
                );
                let msg = outcome.map(|inv| Done::<T> {
                    idx: task.idx,
                    shard: task.shard,
                    outputs: inv.outputs,
                    rebound: inv.rebound,
                });
                if done_tx.send(msg).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        // The task reads copies of the module's state imported into its
        // shard; the state itself changes only when the task commits.
        let dispatch = |idx: NodeIdx,
                        staged: &mut Staged<T::Ref>,
                        state: &WorkflowState<T::Ref>,
                        tracker: &mut T|
         -> Result<()> {
            let node = wf.node(idx);
            let mut shard = tracker.make_shard();
            let edge_inputs = take_edge_inputs(staged, idx, &node.spec)
                .into_iter()
                .map(|(rel, r)| (rel, import_relation::<T>(&r, &mut shard)))
                .collect();
            let state_rels = state
                .module_state(&node.spec.name)?
                .iter()
                .map(|(rel, r)| (rel.clone(), import_relation::<T>(r, &mut shard)))
                .collect();
            task_tx
                .send(Task {
                    idx,
                    shard,
                    edge_inputs,
                    state_rels,
                })
                .expect("workers outlive dispatch");
            Ok(())
        };

        for idx in ready.drain(..) {
            dispatch(idx, &mut staged, state, tracker)?;
        }

        while completed < n {
            let done = done_rx
                .recv()
                .expect("a worker or a pending task always exists")?;
            completed += 1;
            let idx = done.idx;
            let node = wf.node(idx);
            let table = tracker.absorb(done.shard);
            // Outputs and state, with refs remapped into global space.
            let outputs: HashMap<String, ARelation<T::Ref>> = done
                .outputs
                .into_iter()
                .map(|(rel, r)| (rel, RefMapper::remap(&table, r)))
                .collect();
            route(wf, idx, &outputs, &mut staged)?;
            let rebound = done
                .rebound
                .into_iter()
                .map(|(rel, r)| (rel, RefMapper::remap(&table, r)))
                .collect();
            state.commit(&node.spec.name, rebound);
            for edge in wf.outgoing(idx) {
                indeg[edge.to.index()] -= 1;
                if indeg[edge.to.index()] == 0 {
                    dispatch(edge.to, &mut staged, state, tracker)?;
                }
            }
            if wf.output_nodes().contains(&idx) {
                result.outputs.insert(node.instance.clone(), outputs);
            }
        }
        drop(task_tx);
        Ok(())
    })?;

    Ok(result)
}

/// Remap an entire relation through a [`RemapTable`]; implemented for
/// both ref types so the executor stays generic.
pub trait RefMapper<R: Copy> {
    fn remap(&self, rel: ARelation<R>) -> ARelation<R>;
}

impl RefMapper<NodeId> for RemapTable<NodeId> {
    fn remap(&self, rel: ARelation<NodeId>) -> ARelation<NodeId> {
        remap_relation(rel, self)
    }
}

impl RefMapper<()> for RemapTable<()> {
    fn remap(&self, rel: ARelation<()>) -> ARelation<()> {
        rel
    }
}
