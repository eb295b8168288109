//! Workflow execution (Definition 2.3) with provenance capture (§3.1).
//!
//! Module scripts compile once per workflow and UDF registry: the plans
//! live on the [`Workflow`], and every execution — sequential here or
//! module-parallel in [`crate::parallel`] — reads them from there.

use std::collections::HashMap;
use std::sync::Arc;

use lipstick_core::Tracker;
use lipstick_nrel::Tuple;
use lipstick_piglatin::eval::{execute as run_pig, ARelation, ATuple, Ann, Env};
use lipstick_piglatin::plan::Compiled;
use lipstick_piglatin::udf::UdfRegistry;

use crate::dag::{NodeIdx, Workflow};
use crate::error::{Result, WfError};
use crate::module::ModuleSpec;

/// External inputs for one workflow execution: instance name →
/// relation name → tuples.
#[derive(Debug, Clone, Default)]
pub struct WorkflowInput {
    data: HashMap<String, HashMap<String, Vec<Tuple>>>,
}

impl WorkflowInput {
    pub fn new() -> Self {
        WorkflowInput::default()
    }

    /// Provide tuples for an input node's relation (builder style).
    pub fn provide(
        mut self,
        instance: impl Into<String>,
        relation: impl Into<String>,
        tuples: Vec<Tuple>,
    ) -> Self {
        self.data
            .entry(instance.into())
            .or_default()
            .insert(relation.into(), tuples);
        self
    }

    pub(crate) fn get(&self, instance: &str, relation: &str) -> &[Tuple] {
        self.data
            .get(instance)
            .and_then(|m| m.get(relation))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The mutable workflow state: per **module** (spec name), its state
/// relations with their provenance annotations (these persist across
/// executions — that is the point of the paper's `s` nodes).
///
/// State is keyed by module name, not node instance: the paper's
/// unfolded workflows map several DAG nodes to one module (the dealers
/// appear once in the bid phase and once in the purchase phase) and
/// those invocations share state. Nodes of the same module must never
/// be concurrently ready — in an unfolded loop they are ordered by the
/// DAG, which the parallel executor relies on.
#[derive(Debug, Clone)]
pub struct WorkflowState<R: Copy> {
    per_module: HashMap<String, HashMap<String, ARelation<R>>>,
}

impl<R: Copy> WorkflowState<R> {
    /// Empty state for every module, shaped by the state schemas.
    pub fn empty(wf: &Workflow) -> Self {
        let mut per_module: HashMap<String, HashMap<String, ARelation<R>>> = HashMap::new();
        for n in wf.nodes() {
            per_module.entry(n.spec.name.clone()).or_insert_with(|| {
                n.spec
                    .state_schema
                    .iter()
                    .map(|(rel, schema)| (rel.clone(), ARelation::empty(Arc::new(schema.clone()))))
                    .collect()
            });
        }
        WorkflowState { per_module }
    }

    /// Seed a state relation with base tuples (one token per tuple).
    pub fn seed<T: Tracker<Ref = R>>(
        &mut self,
        _wf: &Workflow,
        module: &str,
        relation: &str,
        tuples: Vec<Tuple>,
        tracker: &mut T,
        token_of: impl Fn(usize, &Tuple) -> String,
    ) -> Result<()> {
        let slot = self
            .per_module
            .get_mut(module)
            .and_then(|m| m.get_mut(relation))
            .ok_or_else(|| WfError::UnknownNode(format!("{module}.{relation}")))?;
        for (i, t) in tuples.into_iter().enumerate() {
            let prov = if T::TRACKING {
                tracker.base(&token_of(i, &t))
            } else {
                tracker.base("")
            };
            slot.rows.push(ATuple::plain(t, prov));
        }
        Ok(())
    }

    /// A state relation, if present.
    pub fn relation(&self, _wf: &Workflow, module: &str, rel: &str) -> Option<&ARelation<R>> {
        self.per_module.get(module).and_then(|m| m.get(rel))
    }

    /// Total state tuples across all modules.
    pub fn total_tuples(&self) -> usize {
        self.per_module
            .values()
            .flat_map(|m| m.values())
            .map(|r| r.rows.len())
            .sum()
    }

    /// A module's state relations, to read while it runs.
    pub(crate) fn module_state(&self, module: &str) -> Result<&HashMap<String, ARelation<R>>> {
        self.per_module
            .get(module)
            .ok_or_else(|| WfError::UnknownNode(module.to_string()))
    }

    /// Commit the state relations a successful invocation re-bound.
    pub(crate) fn commit(&mut self, module: &str, rebound: Vec<(String, ARelation<R>)>) {
        self.per_module
            .entry(module.to_string())
            .or_default()
            .extend(rebound);
    }
}

/// Output of one workflow execution: for every output node, its output
/// relations (rows annotated with their `o` nodes).
#[derive(Debug, Clone)]
pub struct ExecutionOutput<R: Copy> {
    pub outputs: HashMap<String, HashMap<String, ARelation<R>>>,
}

impl<R: Copy> ExecutionOutput<R> {
    /// An output relation of an output node.
    pub fn relation(&self, instance: &str, rel: &str) -> Option<&ARelation<R>> {
        self.outputs.get(instance).and_then(|m| m.get(rel))
    }
}

/// What one module invocation produced.
pub(crate) struct InvocationResult<R: Copy> {
    /// Output relations, rows annotated with their `o` nodes.
    pub outputs: HashMap<String, ARelation<R>>,
    /// The state relations the scripts re-bound. Committing them over
    /// the module's state is the caller's job, and only on success;
    /// untouched state relations keep their stored rows.
    pub rebound: Vec<(String, ARelation<R>)>,
}

/// Relations staged on edges: (consumer, relation) → rows.
pub(crate) type Staged<R> = HashMap<(NodeIdx, String), ARelation<R>>;

/// Invoke one module: wrap inputs/state in `i`/`s` nodes, run
/// `Qstate; Qout`, wrap outputs in `o` nodes, and return the outputs
/// and re-bound state relations.
///
/// `external` is the execution's workflow input, given for an input
/// node only; `edge_inputs` holds relations staged by upstream modules
/// (their rows already annotated with `o`-node refs in this tracker's
/// space). The module's state is only read: a failed invocation leaves
/// it as it was, and the tracker is outside any invocation whether the
/// call succeeds or fails.
// Nine arguments mirror the module-invocation protocol (inputs, state,
// tracker, registry, execution counter); bundling them would only move
// the list into a struct literal at each call site.
#[allow(clippy::too_many_arguments)]
pub(crate) fn invoke_module<T: Tracker>(
    instance: &str,
    spec: &ModuleSpec,
    compiled: &Compiled,
    external: Option<&WorkflowInput>,
    edge_inputs: HashMap<String, ARelation<T::Ref>>,
    state: &HashMap<String, ARelation<T::Ref>>,
    tracker: &mut T,
    udfs: &UdfRegistry,
    execution: u32,
) -> Result<InvocationResult<T::Ref>> {
    // Invocations are identified by the *module name* (spec.name): the
    // same module may label several DAG nodes (unfolded loops), and zoom
    // must treat all of their invocations as one unit (§4.1).
    tracker.begin_invocation(&spec.name, execution);
    let result = run_invocation(
        instance,
        spec,
        compiled,
        external,
        edge_inputs,
        state,
        tracker,
        udfs,
        execution,
    );
    tracker.end_invocation();
    result
}

/// The body of [`invoke_module`], inside the tracker's invocation.
#[allow(clippy::too_many_arguments)]
fn run_invocation<T: Tracker>(
    instance: &str,
    spec: &ModuleSpec,
    compiled: &Compiled,
    external: Option<&WorkflowInput>,
    mut edge_inputs: HashMap<String, ARelation<T::Ref>>,
    state: &HashMap<String, ARelation<T::Ref>>,
    tracker: &mut T,
    udfs: &UdfRegistry,
    execution: u32,
) -> Result<InvocationResult<T::Ref>> {
    let mut env: Env<T::Ref> = Env::new();

    // ---- inputs: wrap each tuple in an `i` node ----
    for (rel, schema) in &spec.input_schema {
        let wrapped = if let Some(input) = external {
            let mut r = ARelation::empty(Arc::new(schema.clone()));
            for (i, t) in input.get(instance, rel).iter().enumerate() {
                let wf_in = if T::TRACKING {
                    tracker.workflow_input(&format!("I{execution}.{instance}.{rel}.{i}"))
                } else {
                    tracker.workflow_input("")
                };
                let prov = tracker.module_input(wf_in);
                r.rows.push(ATuple::plain(t.clone(), prov));
            }
            r
        } else {
            let upstream = edge_inputs
                .remove(rel)
                .unwrap_or_else(|| ARelation::empty(Arc::new(schema.clone())));
            let mut r = ARelation::empty(upstream.schema.clone());
            for row in upstream.rows {
                let prov = tracker.module_input(row.ann.prov);
                r.rows.push(ATuple {
                    tuple: row.tuple,
                    ann: Ann {
                        prov,
                        vrefs: row.ann.vrefs,
                    },
                    members: row.members,
                });
            }
            r
        };
        env.bind(rel.clone(), wrapped);
    }

    // ---- state: wrap each tuple in an `s` node ----
    for (rel, _schema) in &spec.state_schema {
        let stored = state
            .get(rel)
            .ok_or_else(|| WfError::UnknownNode(format!("{}.{rel}", spec.name)))?;
        let mut r = ARelation::empty(stored.schema.clone());
        for row in &stored.rows {
            let prov = tracker.state_node(row.ann.prov);
            r.rows.push(ATuple {
                tuple: row.tuple.clone(),
                ann: Ann {
                    prov,
                    vrefs: row.ann.vrefs.clone(),
                },
                members: row.members.clone(),
            });
        }
        env.bind(rel.clone(), r);
    }

    // ---- run Qstate; Qout ----
    run_pig(compiled, &mut env, tracker, udfs).map_err(|error| WfError::Pig {
        node: instance.to_string(),
        error,
    })?;

    // ---- new state: the relations the scripts re-bound ----
    let mut rebound = Vec::new();
    for (rel, _schema) in &spec.state_schema {
        // A state relation the scripts never bound is still the stored
        // one: `s` nodes are per-invocation views, not part of the state.
        let Some(mut r) = compiled
            .schemas
            .contains_key(rel)
            .then(|| env.take(rel))
            .flatten()
        else {
            continue;
        };
        // Value references do not cross invocation boundaries: a
        // v-node belongs to the invocation that computed it (its
        // edges end at that invocation's `o` nodes, Figure 2(c));
        // later invocations pair state values as constants.
        for row in &mut r.rows {
            row.ann.vrefs.clear();
            row.members.clear();
        }
        rebound.push((rel.clone(), r));
    }

    // ---- outputs: wrap each tuple in an `o` node ----
    let mut outputs = HashMap::new();
    for (rel, _schema) in &spec.output_schema {
        let produced = env.take(rel).ok_or_else(|| WfError::MissingOutput {
            node: instance.to_string(),
            relation: rel.clone(),
        })?;
        let mut r = ARelation::empty(produced.schema.clone());
        for row in produced.rows {
            let vnodes: Vec<T::Ref> = row.ann.vref_nodes().collect();
            let prov = tracker.module_output(row.ann.prov, &vnodes);
            r.rows.push(ATuple {
                tuple: row.tuple,
                ann: Ann {
                    prov,
                    vrefs: row.ann.vrefs,
                },
                members: Vec::new(),
            });
        }
        outputs.insert(rel.clone(), r);
    }
    Ok(InvocationResult { outputs, rebound })
}

/// Take the relations staged for a node's inputs off their edges.
pub(crate) fn take_edge_inputs<R: Copy>(
    staged: &mut Staged<R>,
    idx: NodeIdx,
    spec: &ModuleSpec,
) -> HashMap<String, ARelation<R>> {
    spec.input_names()
        .filter_map(|rel| {
            staged
                .remove(&(idx, rel.to_string()))
                .map(|r| (rel.to_string(), r))
        })
        .collect()
}

/// Stage a finished invocation's outputs on the node's outgoing edges.
/// Value references stay within their invocation: downstream modules
/// see a tuple through its `o` node.
pub(crate) fn route<R: Copy>(
    wf: &Workflow,
    idx: NodeIdx,
    outputs: &HashMap<String, ARelation<R>>,
    staged: &mut Staged<R>,
) -> Result<()> {
    for edge in wf.outgoing(idx) {
        for rel in &edge.relations {
            let mut routed = outputs
                .get(rel)
                .ok_or_else(|| WfError::MissingOutput {
                    node: wf.node(idx).instance.clone(),
                    relation: rel.clone(),
                })?
                .clone();
            for row in &mut routed.rows {
                row.ann.vrefs.clear();
            }
            staged.insert((edge.to, rel.clone()), routed);
        }
    }
    Ok(())
}

/// Run a single execution (Definition 2.3): every module once, in
/// topological order.
///
/// Module scripts compile once per workflow and UDF registry (see
/// [`Workflow`]), and all of them before the first module runs: a
/// script that fails to compile fails the execution with the state
/// untouched. A module that fails while running leaves its own state as
/// it was; modules that completed earlier in the same execution keep
/// the state they committed.
pub fn execute_once<T: Tracker>(
    wf: &Workflow,
    input: &WorkflowInput,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    udfs: &UdfRegistry,
    execution: u32,
) -> Result<ExecutionOutput<T::Ref>> {
    let plans = wf.plans(udfs)?;
    execute_with(wf, &plans, input, state, tracker, udfs, execution)
}

/// Run a sequence of executions E₀…Eₙ (Definition 2.3's sequences):
/// state threads from each execution into the next. Plans compile once
/// for the whole sequence; a failure stops it, with
/// [`execute_once`]'s rule for the state.
pub fn execute_sequence<T: Tracker>(
    wf: &Workflow,
    inputs: &[WorkflowInput],
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    udfs: &UdfRegistry,
) -> Result<Vec<ExecutionOutput<T::Ref>>> {
    let plans = wf.plans(udfs)?;
    let mut outputs = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(execute_with(
            wf, &plans, input, state, tracker, udfs, i as u32,
        )?);
    }
    Ok(outputs)
}

/// [`execute_once`] with the plans already compiled.
fn execute_with<T: Tracker>(
    wf: &Workflow,
    plans: &[Compiled],
    input: &WorkflowInput,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    udfs: &UdfRegistry,
    execution: u32,
) -> Result<ExecutionOutput<T::Ref>> {
    let mut staged: Staged<T::Ref> = HashMap::new();
    let mut result = ExecutionOutput {
        outputs: HashMap::new(),
    };
    for &idx in wf.topo_order() {
        let node = wf.node(idx);
        let inv = invoke_module(
            &node.instance,
            &node.spec,
            &plans[idx.index()],
            wf.input_nodes().contains(&idx).then_some(input),
            take_edge_inputs(&mut staged, idx, &node.spec),
            state.module_state(&node.spec.name)?,
            tracker,
            udfs,
            execution,
        )?;
        route(wf, idx, &inv.outputs, &mut staged)?;
        state.commit(&node.spec.name, inv.rebound);
        if wf.output_nodes().contains(&idx) {
            result.outputs.insert(node.instance.clone(), inv.outputs);
        }
    }
    Ok(result)
}

/// Pretty-print an execution's outputs (used by examples).
pub fn render_outputs<R: Copy>(out: &ExecutionOutput<R>) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut instances: Vec<&String> = out.outputs.keys().collect();
    instances.sort();
    for instance in instances {
        let rels = &out.outputs[instance];
        let mut names: Vec<&String> = rels.keys().collect();
        names.sort();
        for rel in names {
            for row in &rels[rel].rows {
                lines.push(format!("{instance}.{rel}: {}", row.tuple));
            }
        }
    }
    lines.join("\n")
}
