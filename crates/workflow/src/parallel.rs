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

use std::collections::HashMap;
use std::sync::{mpsc, Mutex, PoisonError};

use lipstick_core::graph::shard::ShardTracker;
use lipstick_core::{GraphTracker, NoTracker, NodeId, Tracker};
use lipstick_nrel::Tuple;
use lipstick_piglatin::eval::{ARelation, ATuple, Ann};
use lipstick_piglatin::udf::UdfRegistry;

use crate::dag::{NodeIdx, Workflow};
use crate::error::Result;
use crate::exec::{invoke_module, ExecutionOutput, Executor, WorkflowInput, WorkflowState};

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
    // Pre-compile every module (the cache is per-Executor; in the
    // parallel path plans are cloned into tasks).
    let mut plan_cache = Executor::new(wf, udfs);
    let mut compiled = Vec::with_capacity(wf.len());
    for i in 0..wf.len() {
        compiled.push(plan_cache.compiled_for(NodeIdx(i as u32))?);
    }

    // Scheduling state.
    let n = wf.len();
    let mut indeg = vec![0usize; n];
    for e in wf.edges() {
        indeg[e.to.index()] += 1;
    }
    let mut staged: HashMap<(NodeIdx, String), ARelation<T::Ref>> = HashMap::new();
    let mut result = ExecutionOutput {
        outputs: HashMap::new(),
    };

    struct Task<T: ParallelTracker> {
        idx: NodeIdx,
        shard: T::Shard,
        external_inputs: HashMap<String, Vec<Tuple>>,
        edge_inputs: HashMap<String, ARelation<T::Ref>>,
        state_rels: HashMap<String, ARelation<T::Ref>>,
        compiled: std::sync::Arc<lipstick_piglatin::plan::Compiled>,
    }
    struct Done<T: ParallelTracker> {
        idx: NodeIdx,
        shard: T::Shard,
        outputs: HashMap<String, ARelation<T::Ref>>,
        new_state: HashMap<String, ARelation<T::Ref>>,
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
            let wf_ref = &*wf;
            scope.spawn(move || loop {
                // Not `while let`: the guard must drop before the work.
                let next = task_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok(mut task) = next else { break };
                let node = wf_ref.node(task.idx);
                let outcome = invoke_module(
                    &node.instance,
                    &node.spec,
                    &task.compiled,
                    &task.external_inputs,
                    std::mem::take(&mut task.edge_inputs),
                    std::mem::take(&mut task.state_rels),
                    &mut task.shard,
                    udfs,
                    execution,
                );
                let msg = outcome.map(|inv| Done::<T> {
                    idx: task.idx,
                    shard: task.shard,
                    outputs: inv.outputs,
                    new_state: inv.new_state,
                });
                if done_tx.send(msg).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        let dispatch = |idx: NodeIdx,
                        staged: &mut HashMap<(NodeIdx, String), ARelation<T::Ref>>,
                        state: &mut WorkflowState<T::Ref>,
                        tracker: &mut T|
         -> Result<()> {
            let node = wf.node(idx);
            let is_input_node = wf.input_nodes().contains(&idx);
            let mut shard = tracker.make_shard();
            let mut external_inputs = HashMap::new();
            let mut edge_inputs = HashMap::new();
            for (rel, _schema) in &node.spec.input_schema {
                if is_input_node {
                    external_inputs.insert(rel.clone(), input.get(&node.instance, rel).to_vec());
                } else if let Some(r) = staged.remove(&(idx, rel.clone())) {
                    edge_inputs.insert(rel.clone(), import_relation::<T>(&r, &mut shard));
                }
            }
            let mut state_rels = HashMap::new();
            for (rel, r) in state.module_state_mut(&node.spec.name).drain() {
                state_rels.insert(rel.clone(), import_relation::<T>(&r, &mut shard));
            }
            task_tx
                .send(Task {
                    idx,
                    shard,
                    external_inputs,
                    edge_inputs,
                    state_rels,
                    compiled: compiled[idx.index()].clone(),
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
            let table = tracker.absorb(done.shard);
            // Commit state with refs remapped into global space.
            let node_state = state.module_state_mut(&wf.node(idx).spec.name);
            for (rel, r) in done.new_state {
                node_state.insert(rel, RefMapper::remap(&table, r));
            }
            // Route outputs.
            let node = wf.node(idx);
            let mut remapped_outputs: HashMap<String, ARelation<T::Ref>> = HashMap::new();
            for (rel, r) in done.outputs {
                remapped_outputs.insert(rel, RefMapper::remap(&table, r));
            }
            for edge in wf.outgoing(idx) {
                for rel in &edge.relations {
                    let out = remapped_outputs
                        .get(rel)
                        .expect("edge validated against Sout");
                    // vrefs stay within their invocation (see the
                    // sequential executor's routing).
                    let mut routed = out.clone();
                    for row in &mut routed.rows {
                        row.ann.vrefs.clear();
                    }
                    staged.insert((edge.to, rel.clone()), routed);
                }
                indeg[edge.to.index()] -= 1;
                if indeg[edge.to.index()] == 0 {
                    dispatch(edge.to, &mut staged, state, tracker)?;
                }
            }
            if wf.output_nodes().contains(&idx) {
                result
                    .outputs
                    .insert(node.instance.clone(), remapped_outputs);
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
