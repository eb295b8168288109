//! Arena oracle: `ProvGraph`'s node table and flat edge arrays against a
//! reference model that gives every node its own pred and succ `Vec` and
//! adds each edge to both, in call order.
//!
//! The model is driven by the same calls as the arena: a tracker that
//! forwards every hook to both (dealers and Arctic workflows, and random
//! tracking scripts absorbed through worker shards), then random steps of
//! deletion propagation, zoom pairs and fragment ingests. After every
//! step each node's preds and succs (in order), `visible_signature`,
//! `visible_edge_count` and the `encode_graph_v2` bytes must agree, and a
//! decode of those bytes must read back the same graph.
//! `PROPTEST_CASES` sets the number of random graphs (default 16).

use std::collections::HashMap;

use lipstick::core::agg::AggOp;
use lipstick::core::graph::tracker::AggItemValue;
use lipstick::core::graph::{InvocationInfo, ShardTracker, VisibleSignature};
use lipstick::core::obs::fnv1a64;
use lipstick::core::query::deletion::compute_deletion;
use lipstick::core::query::{plan_zoom_out, zoom_in, zoom_out};
use lipstick::core::semiring::Token;
use lipstick::core::{GraphTracker, InvocationId, NodeId, NodeKind, ProvGraph, Role, Tracker};
use lipstick::nrel::Value;
use lipstick::piglatin::udf::UdfRegistry;
use lipstick::storage::{decode_graph, encode_graph_v2};
use lipstick::workflow::parallel::execute_once_parallel;
use lipstick::workflow::WorkflowState;
use lipstick::workflowgen::arctic::{self, ArcticParams, Selectivity, Topology};
use lipstick::workflowgen::dealers::{self, DealersParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn case_budget() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

// ----- the reference model -----

#[derive(Debug, Clone, PartialEq)]
struct RefNode {
    kind: NodeKind,
    role: Role,
    preds: Vec<NodeId>,
    succs: Vec<NodeId>,
    deleted: bool,
    hidden: bool,
}

impl RefNode {
    fn visible(&self) -> bool {
        !self.deleted && !self.hidden
    }
}

/// One `Vec` of preds and one of succs per node; `add_edge` pushes to
/// both.
#[derive(Debug, Clone, Default)]
struct RefGraph {
    nodes: Vec<RefNode>,
    invocations: Vec<InvocationInfo>,
}

impl RefGraph {
    fn add_node(&mut self, kind: NodeKind, role: Role) -> NodeId {
        self.nodes.push(RefNode {
            kind,
            role,
            preds: Vec::new(),
            succs: Vec::new(),
            deleted: false,
            hidden: false,
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.nodes[from.index()].succs.push(to);
        self.nodes[to.index()].preds.push(from);
    }

    fn register_invocation(&mut self, module: String, execution: u32, m_node: NodeId) {
        self.invocations.push(InvocationInfo {
            module,
            execution,
            m_node,
        });
    }

    /// Absorb a shard graph edge by edge, walking each node's succs.
    fn absorb(&mut self, other: &RefGraph, external: &HashMap<NodeId, NodeId>) -> Vec<NodeId> {
        let inv_offset = self.invocations.len() as u32;
        let mut remap = Vec::with_capacity(other.nodes.len());
        for (id, node) in other.nodes.iter().enumerate() {
            match external.get(&NodeId(id as u32)) {
                Some(&global) => remap.push(global),
                None => remap.push(self.add_node(node.kind.clone(), node.role.rebased(inv_offset))),
            }
        }
        for (id, node) in other.nodes.iter().enumerate() {
            for &succ in &node.succs {
                self.add_edge(remap[id], remap[succ.index()]);
            }
        }
        for info in &other.invocations {
            self.register_invocation(
                info.module.clone(),
                info.execution,
                remap[info.m_node.index()],
            );
        }
        remap
    }

    /// Append a fragment: nodes first, then each node's preds in order.
    fn splice(&mut self, fragment: &ProvGraph) {
        let node_off = self.nodes.len() as u32;
        let inv_off = self.invocations.len() as u32;
        let created: Vec<NodeId> = fragment
            .iter()
            .map(|(_, n)| {
                let id = self.add_node(n.kind.clone(), n.role.rebased(inv_off));
                self.nodes[id.index()].deleted = n.is_deleted();
                id
            })
            .collect();
        for ((_, n), &id) in fragment.iter().zip(&created) {
            for &p in n.preds() {
                self.add_edge(NodeId(p.0 + node_off), id);
            }
        }
        for inv in fragment.invocations() {
            let m_node = NodeId(inv.m_node.0 + node_off);
            self.register_invocation(inv.module.clone(), inv.execution, m_node);
        }
    }

    fn unlink_and_delete(&mut self, id: NodeId) {
        for p in std::mem::take(&mut self.nodes[id.index()].preds) {
            self.nodes[p.index()].succs.retain(|s| *s != id);
        }
        for s in std::mem::take(&mut self.nodes[id.index()].succs) {
            self.nodes[s.index()].preds.retain(|p| *p != id);
        }
        self.nodes[id.index()].deleted = true;
    }

    /// Visible labelled nodes and visible edges read off the succs.
    fn visible_signature(&self) -> VisibleSignature {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.visible()) {
            nodes.push((NodeId(i as u32), n.kind.label()));
            for &s in &n.succs {
                if self.nodes[s.index()].visible() {
                    edges.push((NodeId(i as u32), s));
                }
            }
        }
        nodes.sort();
        edges.sort();
        (nodes, edges)
    }

    fn visible_edge_count(&self) -> usize {
        self.visible_signature().1.len()
    }

    /// The model as an edge-by-edge `ProvGraph`: every node, then one
    /// edge at a time in an order that reproduces each pred list and each
    /// succ list (an edge is added once it heads both its source's
    /// pending succs and its target's pending preds — some insertion
    /// history produced the model, so one always does).
    fn replay(&self) -> ProvGraph {
        let mut g = ProvGraph::new();
        for n in &self.nodes {
            let id = g.add_node(n.kind.clone(), n.role);
            g.set_node_deleted(id, n.deleted);
        }
        for info in &self.invocations {
            g.register_invocation(info.module.clone(), info.execution, info.m_node);
        }
        let mut next_succ = vec![0usize; self.nodes.len()];
        let mut next_pred = vec![0usize; self.nodes.len()];
        let mut stack: Vec<usize> = (0..self.nodes.len()).rev().collect();
        while let Some(from) = stack.pop() {
            let Some(&to) = self.nodes[from].succs.get(next_succ[from]) else {
                continue;
            };
            let to_preds = &self.nodes[to.index()].preds;
            if to_preds.get(next_pred[to.index()]) != Some(&NodeId(from as u32)) {
                continue; // `to` waits for another pred first
            }
            g.add_edge(NodeId(from as u32), to);
            next_succ[from] += 1;
            next_pred[to.index()] += 1;
            stack.push(from);
            if let Some(&p) = to_preds.get(next_pred[to.index()]) {
                stack.push(p.index());
            }
        }
        let placed: usize = next_succ.iter().sum();
        let total: usize = self.nodes.iter().map(|n| n.succs.len()).sum();
        assert_eq!(placed, total, "model lists admit no insertion history");
        g
    }
}

// ----- trackers over the model -----

/// The graph-building tracker over the model, edge by edge. As a
/// worker shard it also keeps its placeholder imports.
#[derive(Default)]
struct RefTracker {
    graph: RefGraph,
    current: Option<(InvocationId, NodeId)>,
    const_nodes: HashMap<(Option<InvocationId>, Value), NodeId>,
    /// Placeholder id → the global id it imports.
    external: HashMap<NodeId, NodeId>,
}

impl RefTracker {
    fn import(&mut self, global: NodeId) -> NodeId {
        if let Some((&local, _)) = self.external.iter().find(|(_, g)| **g == global) {
            return local;
        }
        let local = self.base("@import");
        self.external.insert(local, global);
        local
    }

    fn op_role(&self) -> Role {
        self.current
            .map_or(Role::Free, |(inv, _)| Role::Intermediate(inv))
    }

    fn add_op(&mut self, kind: NodeKind, preds: &[NodeId]) -> NodeId {
        let id = self.graph.add_node(kind, self.op_role());
        for &p in preds {
            self.graph.add_edge(p, id);
        }
        id
    }

    fn const_node(&mut self, value: &Value) -> NodeId {
        let key = (self.current.map(|(i, _)| i), value.clone());
        if let Some(&id) = self.const_nodes.get(&key) {
            return id;
        }
        let id = self.graph.add_node(
            NodeKind::Const {
                value: value.clone(),
            },
            self.op_role(),
        );
        self.const_nodes.insert(key, id);
        id
    }

    fn boundary(
        &mut self,
        kind: NodeKind,
        role: fn(InvocationId) -> Role,
        tuple: NodeId,
    ) -> NodeId {
        let (inv, m_node) = self.current.expect("inside an invocation");
        let id = self.graph.add_node(kind, role(inv));
        self.graph.add_edge(tuple, id);
        self.graph.add_edge(m_node, id);
        id
    }
}

impl Tracker for RefTracker {
    type Ref = NodeId;
    const TRACKING: bool = true;

    fn base(&mut self, token: &str) -> NodeId {
        let kind = NodeKind::BaseTuple {
            token: Token::new(token),
        };
        self.graph.add_node(kind, self.op_role())
    }
    fn plus(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Plus, parts)
    }
    fn times(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Times, parts)
    }
    fn delta(&mut self, parts: &[NodeId]) -> NodeId {
        self.add_op(NodeKind::Delta, parts)
    }
    fn agg(&mut self, op: AggOp, items: &[(NodeId, AggItemValue<NodeId>)]) -> NodeId {
        let role = self.op_role();
        let op_node = self.graph.add_node(NodeKind::AggResult { op }, role);
        for (prov, value) in items {
            let value_node = match value {
                AggItemValue::Const(v) => self.const_node(v),
                AggItemValue::Node(n) => *n,
            };
            let tensor = self.graph.add_node(NodeKind::Tensor, role);
            self.graph.add_edge(*prov, tensor);
            if value_node != *prov {
                self.graph.add_edge(value_node, tensor);
            }
            self.graph.add_edge(tensor, op_node);
        }
        op_node
    }
    fn blackbox(&mut self, name: &str, inputs: &[NodeId], is_value: bool) -> NodeId {
        let kind = NodeKind::BlackBox {
            name: name.to_string(),
            is_value,
        };
        self.add_op(kind, inputs)
    }
    fn workflow_input(&mut self, token: &str) -> NodeId {
        let kind = NodeKind::WorkflowInput {
            token: Token::new(token),
        };
        self.graph.add_node(kind, Role::WorkflowInput)
    }
    fn begin_invocation(&mut self, module: &str, execution: u32) -> NodeId {
        let inv = InvocationId(self.graph.invocations.len() as u32);
        let m_node = self
            .graph
            .add_node(NodeKind::Invocation, Role::Invocation(inv));
        self.graph
            .register_invocation(module.to_string(), execution, m_node);
        self.current = Some((inv, m_node));
        m_node
    }
    fn end_invocation(&mut self) {
        self.current = None;
    }
    fn module_input(&mut self, tuple: NodeId) -> NodeId {
        self.boundary(NodeKind::ModuleInput, Role::ModuleInput, tuple)
    }
    fn module_output(&mut self, tuple: NodeId, vrefs: &[NodeId]) -> NodeId {
        let id = self.boundary(NodeKind::ModuleOutput, Role::ModuleOutput, tuple);
        for &v in vrefs {
            self.graph.add_edge(v, id);
        }
        id
    }
    fn state_node(&mut self, tuple: NodeId) -> NodeId {
        self.boundary(NodeKind::StateUnit, Role::State, tuple)
    }
}

/// Every hook goes to the arena's tracker and to the model's, which
/// must hand out the same ids.
struct Tee<A, B> {
    arena: A,
    model: B,
}

macro_rules! both {
    ($self:ident . $hook:ident ( $($arg:expr),* )) => {{
        let a = $self.arena.$hook($($arg),*);
        let b = $self.model.$hook($($arg),*);
        assert_eq!(a, b, concat!(stringify!($hook), " ids diverged"));
        a
    }};
}

impl<A: Tracker<Ref = NodeId>, B: Tracker<Ref = NodeId>> Tracker for Tee<A, B> {
    type Ref = NodeId;
    const TRACKING: bool = true;

    fn base(&mut self, token: &str) -> NodeId {
        both!(self.base(token))
    }
    fn plus(&mut self, parts: &[NodeId]) -> NodeId {
        both!(self.plus(parts))
    }
    fn times(&mut self, parts: &[NodeId]) -> NodeId {
        both!(self.times(parts))
    }
    fn delta(&mut self, parts: &[NodeId]) -> NodeId {
        both!(self.delta(parts))
    }
    fn agg(&mut self, op: AggOp, items: &[(NodeId, AggItemValue<NodeId>)]) -> NodeId {
        both!(self.agg(op, items))
    }
    fn blackbox(&mut self, name: &str, inputs: &[NodeId], is_value: bool) -> NodeId {
        both!(self.blackbox(name, inputs, is_value))
    }
    fn workflow_input(&mut self, token: &str) -> NodeId {
        both!(self.workflow_input(token))
    }
    fn begin_invocation(&mut self, module: &str, execution: u32) -> NodeId {
        both!(self.begin_invocation(module, execution))
    }
    fn end_invocation(&mut self) {
        self.arena.end_invocation();
        self.model.end_invocation();
    }
    fn module_input(&mut self, tuple: NodeId) -> NodeId {
        both!(self.module_input(tuple))
    }
    fn module_output(&mut self, tuple: NodeId, vrefs: &[NodeId]) -> NodeId {
        both!(self.module_output(tuple, vrefs))
    }
    fn state_node(&mut self, tuple: NodeId) -> NodeId {
        both!(self.state_node(tuple))
    }
}

type TeeTracker = Tee<GraphTracker, RefTracker>;
type TeeShard = Tee<ShardTracker, RefTracker>;

impl TeeShard {
    fn import(&mut self, global: NodeId) -> NodeId {
        let (a, b) = (self.arena.import(global), self.model.import(global));
        assert_eq!(a, b, "import ids diverged");
        a
    }
}

fn new_tee() -> TeeTracker {
    Tee {
        arena: GraphTracker::new(),
        model: RefTracker::default(),
    }
}

/// One module's worth of nodes recorded in a shard pair: imports before
/// and after the invocation begins (so a shard node may name a
/// placeholder younger than the `m` node), a join, an aggregate over a
/// constant and a black-box value, and an output carrying that value.
fn absorb_random_shard(tee: &mut TeeTracker, rng: &mut StdRng) {
    let globals = tee.arena.graph().len();
    let mut pick = || NodeId(rng.below(globals) as u32);
    let (g0, g1, g2) = (pick(), pick(), pick());
    let mut shard = TeeShard {
        arena: ShardTracker::new(),
        model: RefTracker::default(),
    };
    let a = shard.import(g0);
    shard.begin_invocation("Mshard", rng.below(4) as u32);
    let i = shard.module_input(a);
    let late = shard.import(g1);
    let s = shard.state_node(late);
    let joined = shard.times(&[i, s]);
    let value = shard.blackbox("calc", &[joined], true);
    let kept = shard.plus(&[joined]);
    let total = shard.agg(
        AggOp::Sum,
        &[
            (kept, AggItemValue::Node(value)),
            (joined, AggItemValue::Const(Value::Int(rng.below(3) as i64))),
        ],
    );
    shard.module_output(kept, &[value, total]);
    let again = shard.import(g2);
    if again != kept {
        shard.delta(&[kept, again]);
    }
    shard.end_invocation();
    let remap = tee.arena.absorb_shard(shard.arena);
    let model = shard.model;
    let model_remap = tee.model.graph.absorb(&model.graph, &model.external);
    assert_eq!(remap, model_remap, "absorb remap tables diverged");
}

// ----- comparison -----

fn assert_same(arena: &ProvGraph, model: &RefGraph, after: &str) {
    assert_eq!(arena.len(), model.nodes.len(), "node count after {after}");
    assert_eq!(arena.invocations(), model.invocations.as_slice(), "{after}");
    for (id, node) in arena.iter() {
        let want = &model.nodes[id.index()];
        assert_eq!(node.kind, want.kind, "kind of {id} after {after}");
        assert_eq!(node.role, want.role, "role of {id} after {after}");
        assert_eq!(
            (node.is_deleted(), node.is_zoom_hidden()),
            (want.deleted, want.hidden),
            "flags of {id} after {after}"
        );
        assert_eq!(
            node.preds(),
            want.preds.as_slice(),
            "preds of {id} after {after}"
        );
        assert_eq!(
            node.succs(),
            want.succs.as_slice(),
            "succs of {id} after {after}"
        );
    }
    assert_eq!(
        arena.visible_signature(),
        model.visible_signature(),
        "{after}"
    );
    assert_eq!(
        arena.visible_edge_count(),
        model.visible_edge_count(),
        "{after}"
    );
    assert_eq!(
        arena.visible_count(),
        model.nodes.iter().filter(|n| n.visible()).count(),
        "visible count after {after}"
    );
    // Bytes: only a graph with no active zoom encodes.
    if arena.zoomed_out_modules().is_empty() {
        let bytes = encode_graph_v2(arena).expect("encode arena");
        let replayed = encode_graph_v2(&model.replay()).expect("encode model");
        assert!(bytes == replayed, "encode_graph_v2 bytes after {after}");
        let decoded = decode_graph(&bytes).expect("decode");
        for ((id, x), (_, y)) in decoded.iter().zip(arena.iter()) {
            assert_eq!(x.slot(), y.slot(), "decoded slot of {id} after {after}");
            assert_eq!(x.preds(), y.preds(), "decoded preds of {id} after {after}");
            assert_eq!(x.succs(), y.succs(), "decoded succs of {id} after {after}");
        }
    }
}

/// Random resident mutations on both sides, compared after each.
fn mutate_and_compare(mut arena: ProvGraph, mut model: RefGraph, rng: &mut StdRng, steps: usize) {
    let modules: Vec<String> = {
        let mut m: Vec<String> = arena
            .invocations()
            .iter()
            .map(|i| i.module.clone())
            .collect();
        m.sort();
        m.dedup();
        m
    };
    for step in 0..steps {
        let what = match rng.below(10) {
            0..=2 => {
                let visible: Vec<NodeId> = arena.iter_visible().map(|(id, _)| id).collect();
                if visible.is_empty() {
                    continue;
                }
                let root = visible[rng.below(visible.len())];
                let report = compute_deletion(&arena, root).expect("visible root");
                for &id in &report.deleted {
                    arena.set_node_deleted(id, true);
                    model.nodes[id.index()].deleted = true;
                }
                format!("DELETE {root}")
            }
            3..=6 if !modules.is_empty() => {
                let module = modules[rng.below(modules.len())].as_str();
                zoom_pair(&mut arena, &mut model, module);
                format!("zoom pair on {module}")
            }
            _ => {
                let mut fragment = GraphTracker::new();
                dealers::run_declining(
                    &DealersParams {
                        num_cars: 4 + rng.below(6),
                        num_exec: 1,
                        seed: rng.next_u64(),
                    },
                    &mut fragment,
                )
                .expect("fragment run");
                let fragment = fragment.finish();
                arena.splice(&fragment);
                model.splice(&fragment);
                "ingest".to_string()
            }
        };
        assert_same(&arena, &model, &format!("step {step}: {what}"));
    }
}

/// ZOOM OUT then ZOOM IN of one module, on both sides; compared while
/// zoomed out too.
fn zoom_pair(arena: &mut ProvGraph, model: &mut RefGraph, module: &str) {
    let plans = plan_zoom_out(&*arena, &[module], &[], arena.stash_count()).expect("plan");
    let stash = arena.stash_count() as u32;
    zoom_out(arena, &[module]).expect("zoom out");
    let mut zoom_nodes = Vec::new();
    for plan in &plans {
        for &id in &plan.hidden {
            model.nodes[id.index()].hidden = true;
        }
        for comp in &plan.composites {
            let zoom = model.add_node(NodeKind::Zoomed { stash }, Role::Zoom(comp.invocation));
            for &i in &comp.inputs {
                model.add_edge(i, zoom);
            }
            for &o in &comp.outputs {
                model.add_edge(zoom, o);
            }
            zoom_nodes.push(zoom);
        }
    }
    assert_same(arena, model, &format!("ZOOM OUT {module}"));
    zoom_in(arena, &[module]).expect("zoom in");
    for plan in &plans {
        for &id in &plan.hidden {
            model.nodes[id.index()].hidden = false;
        }
    }
    for z in zoom_nodes {
        model.unlink_and_delete(z);
        model.nodes[z.index()].kind = NodeKind::Zoomed {
            stash: lipstick::core::graph::RETIRED_STASH,
        };
    }
}

fn random_tracked(rng: &mut StdRng) -> TeeTracker {
    let mut tee = new_tee();
    if rng.chance(50) {
        let params = DealersParams {
            num_cars: 6 + rng.below(20),
            num_exec: 1 + rng.below(3),
            seed: rng.next_u64(),
        };
        dealers::run_declining(&params, &mut tee).expect("dealers run");
    } else {
        let params = ArcticParams {
            stations: 2 + rng.below(4),
            topology: match rng.below(3) {
                0 => Topology::Serial,
                1 => Topology::Parallel,
                _ => Topology::Dense {
                    fanout: 2 + rng.below(3),
                },
            },
            selectivity: Selectivity::Month,
            num_exec: 1 + rng.below(4),
            seed: rng.next_u64(),
        };
        arctic::run(&params, &mut tee).expect("arctic run");
    }
    tee
}

#[test]
fn tracked_graphs_match_the_model_through_random_mutations() {
    let mut rng = StdRng::seed_from_u64(0xa4e4_a0c1_e000_0001);
    for case in 0..case_budget() {
        let mut tee = random_tracked(&mut rng);
        for _ in 0..rng.below(3) {
            absorb_random_shard(&mut tee, &mut rng);
        }
        let arena = tee.arena.finish();
        assert_same(&arena, &tee.model.graph, &format!("tracking, case {case}"));
        mutate_and_compare(arena, tee.model.graph, &mut rng, 6);
    }
}

#[test]
fn full_size_workloads_match_the_model() {
    let mut dealers_tee = new_tee();
    let params = DealersParams {
        num_cars: 64,
        num_exec: 12,
        seed: 11,
    };
    dealers::run_declining(&params, &mut dealers_tee).expect("dealers run");
    let arena = dealers_tee.arena.finish();
    assert_same(&arena, &dealers_tee.model.graph, "dealers");
    for topology in [
        Topology::Serial,
        Topology::Parallel,
        Topology::Dense { fanout: 3 },
    ] {
        let mut tee = new_tee();
        let params = ArcticParams {
            topology,
            ..ArcticParams::default()
        };
        arctic::run(&params, &mut tee).expect("arctic run");
        let arena = tee.arena.finish();
        assert_same(&arena, &tee.model.graph, &format!("arctic {topology}"));
    }
}

/// A module input nothing reads: ZOOM OUT makes the composite its first
/// dependent, so ZOOM IN must remove a list's first entry.
#[test]
fn a_zoom_pair_over_an_unread_input_matches_the_model() {
    let mut tee = new_tee();
    let (w0, w1) = (tee.workflow_input("I0"), tee.workflow_input("I1"));
    tee.begin_invocation("M", 0);
    tee.module_input(w0);
    let read = tee.module_input(w1);
    let kept = tee.plus(&[read]);
    tee.module_output(kept, &[]);
    tee.end_invocation();
    let mut arena = tee.arena.finish();
    let mut model = tee.model.graph;
    assert_same(&arena, &model, "tracking");
    zoom_pair(&mut arena, &mut model, "M");
    assert_same(&arena, &model, "ZOOM IN M");
}

fn parallel_dealers(params: &DealersParams, reducers: usize) -> ProvGraph {
    let mut udfs = UdfRegistry::new();
    let wf = dealers::build(&mut udfs);
    let mut state = WorkflowState::empty(&wf);
    let mut tracker = GraphTracker::new();
    dealers::seed_state(&wf, &mut state, &mut tracker, params).unwrap();
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let buyer = dealers::Buyer::draw(&mut rng);
    for e in 0..params.num_exec {
        let input = dealers::execution_input(&buyer, e as u32, 0.5);
        execute_once_parallel(
            &wf,
            &input,
            &mut state,
            &mut tracker,
            &udfs,
            e as u32,
            reducers,
        )
        .unwrap();
    }
    tracker.finish()
}

fn parallel_arctic(params: &ArcticParams, reducers: usize) -> ProvGraph {
    let mut udfs = UdfRegistry::new();
    let wf = arctic::build(params, &mut udfs);
    let mut state = WorkflowState::empty(&wf);
    let mut tracker = GraphTracker::new();
    arctic::seed_state(&wf, &mut state, &mut tracker, params).unwrap();
    for e in 0..params.num_exec {
        let input = arctic::query_input(e as u32);
        execute_once_parallel(
            &wf,
            &input,
            &mut state,
            &mut tracker,
            &udfs,
            e as u32,
            reducers,
        )
        .unwrap();
    }
    tracker.finish()
}

/// The module-parallel executor's graphs, absorbed shard by shard: with
/// one reducer the absorption order is fixed, so the encoded bytes are
/// pinned (digests of the per-node `Vec` graph these arrays replaced).
/// With several reducers the order varies, so those runs must decode
/// back to themselves.
#[test]
fn module_parallel_graphs_are_pinned() {
    let digest = |g: &ProvGraph| fnv1a64(&encode_graph_v2(g).expect("encode"));
    let params = DealersParams {
        num_cars: 24,
        num_exec: 3,
        seed: 3,
    };
    assert_eq!(digest(&parallel_dealers(&params, 1)), DEALERS_PARALLEL);
    for (topology, want) in [
        (Topology::Serial, ARCTIC_PARALLEL[0]),
        (Topology::Parallel, ARCTIC_PARALLEL[1]),
        (Topology::Dense { fanout: 3 }, ARCTIC_PARALLEL[2]),
    ] {
        let params = ArcticParams {
            topology,
            num_exec: 4,
            ..ArcticParams::default()
        };
        assert_eq!(
            digest(&parallel_arctic(&params, 1)),
            want,
            "arctic {topology}"
        );
        let wide = parallel_arctic(&params, 3);
        let decoded = decode_graph(&encode_graph_v2(&wide).unwrap()).unwrap();
        for ((id, x), (_, y)) in decoded.iter().zip(wide.iter()) {
            assert_eq!((x.preds(), x.succs()), (y.preds(), y.succs()), "{id}");
        }
    }
}

const DEALERS_PARALLEL: u64 = 0x806b_f221_1a5d_061e;
const ARCTIC_PARALLEL: [u64; 3] = [
    0xa437_1d8f_702b_fdb8,
    0x176f_cd6f_c7ae_70e8,
    0xb65b_d013_1002_68d1,
];
