//! Workflow DAGs (Definition 2.2) and their validation.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

use lipstick_piglatin::plan::{compile, Compiled, SchemaMap};
use lipstick_piglatin::udf::UdfRegistry;

use crate::error::{Result, WfError};
use crate::module::ModuleSpec;

/// Index of a node in a workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A workflow node: a module *instance* with its own identity (state is
/// per instance — `Mdealer1…4` share a spec but not state).
#[derive(Debug, Clone)]
pub struct WfNode {
    /// Unique instance name (`LV`'s module name in the paper).
    pub instance: String,
    /// The module specification.
    pub spec: Arc<ModuleSpec>,
}

/// An edge: relation names flowing from one node's `Sout` to another's
/// `Sin` (`LE`).
#[derive(Debug, Clone)]
pub struct WfEdge {
    pub from: NodeIdx,
    pub to: NodeIdx,
    pub relations: Vec<String>,
}

/// A validated workflow (Definition 2.2).
///
/// It also holds its compiled module plans: every node's `Qstate; Qout`
/// is parsed and compiled once, on the first execution, against that
/// execution's UDF registry, and every later execution with the same
/// registry reuses the plans.
#[derive(Debug, Clone)]
pub struct Workflow {
    nodes: Vec<WfNode>,
    edges: Vec<WfEdge>,
    inputs: Vec<NodeIdx>,
    outputs: Vec<NodeIdx>,
    topo: Vec<NodeIdx>,
    plans: OnceLock<Plans>,
}

/// Every node's compiled plan, in node order, and the id of the UDF
/// registry they were compiled against.
#[derive(Debug, Clone)]
struct Plans {
    registry: u64,
    compiled: Vec<Compiled>,
}

impl Workflow {
    pub fn nodes(&self) -> &[WfNode] {
        &self.nodes
    }
    pub fn edges(&self) -> &[WfEdge] {
        &self.edges
    }
    /// Input nodes (`In`): no incoming edges; fed by workflow inputs.
    pub fn input_nodes(&self) -> &[NodeIdx] {
        &self.inputs
    }
    /// Output nodes (`Out`): no outgoing edges; their outputs are the
    /// workflow outputs.
    pub fn output_nodes(&self) -> &[NodeIdx] {
        &self.outputs
    }
    /// A topological order of the nodes (the reference semantics).
    pub fn topo_order(&self) -> &[NodeIdx] {
        &self.topo
    }
    pub fn node(&self, idx: NodeIdx) -> &WfNode {
        &self.nodes[idx.index()]
    }
    /// Incoming edges of a node.
    pub fn incoming(&self, idx: NodeIdx) -> impl Iterator<Item = &WfEdge> {
        self.edges.iter().filter(move |e| e.to == idx)
    }
    /// Outgoing edges of a node.
    pub fn outgoing(&self, idx: NodeIdx) -> impl Iterator<Item = &WfEdge> {
        self.edges.iter().filter(move |e| e.from == idx)
    }
    /// Find a node index by instance name.
    pub fn find(&self, instance: &str) -> Result<NodeIdx> {
        self.nodes
            .iter()
            .position(|n| n.instance == instance)
            .map(|i| NodeIdx(i as u32))
            .ok_or_else(|| WfError::UnknownNode(instance.to_string()))
    }
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
    /// True iff the workflow has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Every node's compiled plan, indexed by [`NodeIdx`], for `udfs`.
    /// This is the one place module scripts compile. The first registry
    /// a workflow meets gets its plans cached here; a call with any
    /// other registry (a different one, or the same one after a
    /// `register`, which gives it a new id) compiles its own.
    ///
    /// All nodes compile before any result is returned, so a script that
    /// fails to compile fails the execution before any module runs.
    pub(crate) fn plans(&self, udfs: &UdfRegistry) -> Result<Cow<'_, [Compiled]>> {
        if self.plans.get().is_none() {
            let compiled = self.compile_all(udfs)?;
            // A racing first call may have set it already; either set of
            // plans is checked against its registry below.
            let _ = self.plans.set(Plans {
                registry: udfs.id(),
                compiled,
            });
        }
        match self.plans.get() {
            Some(p) if p.registry == udfs.id() => Ok(Cow::Borrowed(&p.compiled)),
            _ => self.compile_all(udfs).map(Cow::Owned),
        }
    }

    fn compile_all(&self, udfs: &UdfRegistry) -> Result<Vec<Compiled>> {
        self.nodes
            .iter()
            .map(|node| {
                let mut schemas = SchemaMap::new();
                for (rel, schema) in node.spec.input_schema.iter().chain(&node.spec.state_schema) {
                    schemas.insert(rel.clone(), Arc::new(schema.clone()));
                }
                lipstick_piglatin::parse(&node.spec.combined_script())
                    .and_then(|program| compile(&program, &schemas, udfs))
                    .map_err(|error| WfError::Pig {
                        node: node.instance.clone(),
                        error,
                    })
            })
            .collect()
    }
}

/// Builder with validation.
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    nodes: Vec<WfNode>,
    edges: Vec<WfEdge>,
}

impl WorkflowBuilder {
    pub fn new() -> Self {
        WorkflowBuilder::default()
    }

    /// Add a module instance; returns its index.
    pub fn add_node(&mut self, instance: impl Into<String>, spec: Arc<ModuleSpec>) -> NodeIdx {
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes.push(WfNode {
            instance: instance.into(),
            spec,
        });
        idx
    }

    /// Add an edge carrying the given relations.
    pub fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, relations: &[&str]) {
        self.edges.push(WfEdge {
            from,
            to,
            relations: relations.iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Validate per Definition 2.2 and freeze.
    pub fn build(self) -> Result<Workflow> {
        let n = self.nodes.len();
        // Unique instance names.
        let mut seen = HashSet::new();
        for node in &self.nodes {
            if !seen.insert(node.instance.clone()) {
                return Err(WfError::DuplicateInstance(node.instance.clone()));
            }
        }
        // Edge labels must exist in the endpoint schemas.
        for e in &self.edges {
            let from = &self.nodes[e.from.index()];
            let to = &self.nodes[e.to.index()];
            for rel in &e.relations {
                if !from.spec.has_output(rel) {
                    return Err(WfError::BadEdge {
                        from: from.instance.clone(),
                        to: to.instance.clone(),
                        relation: rel.clone(),
                        reason: format!("not an output of '{}'", from.spec.name),
                    });
                }
                if !to.spec.has_input(rel) {
                    return Err(WfError::BadEdge {
                        from: from.instance.clone(),
                        to: to.instance.clone(),
                        relation: rel.clone(),
                        reason: format!("not an input of '{}'", to.spec.name),
                    });
                }
            }
        }
        // Incoming relation names pairwise disjoint per node; compute
        // coverage of input schemas.
        let mut incoming_rels: Vec<HashSet<&str>> = vec![HashSet::new(); n];
        for e in &self.edges {
            for rel in &e.relations {
                if !incoming_rels[e.to.index()].insert(rel) {
                    return Err(WfError::DuplicateIncoming {
                        node: self.nodes[e.to.index()].instance.clone(),
                        relation: rel.clone(),
                    });
                }
            }
        }
        // Topological sort (Kahn) + cycle detection.
        let mut indeg = vec![0usize; n];
        let mut has_incoming = vec![false; n];
        let mut has_outgoing = vec![false; n];
        for e in &self.edges {
            indeg[e.to.index()] += 1;
            has_incoming[e.to.index()] = true;
            has_outgoing[e.from.index()] = true;
        }
        let mut queue: VecDeque<NodeIdx> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeIdx(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut indeg_work = indeg.clone();
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            for e in self.edges.iter().filter(|e| e.from == v) {
                indeg_work[e.to.index()] -= 1;
                if indeg_work[e.to.index()] == 0 {
                    queue.push_back(e.to);
                }
            }
        }
        if topo.len() != n {
            return Err(WfError::Cyclic);
        }
        // Connectivity (weak): required by Definition 2.2.
        if n > 1 {
            let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
            for e in &self.edges {
                adj.entry(e.from.index()).or_default().push(e.to.index());
                adj.entry(e.to.index()).or_default().push(e.from.index());
            }
            let mut visited = vec![false; n];
            let mut stack = vec![0usize];
            visited[0] = true;
            let mut count = 1;
            while let Some(v) = stack.pop() {
                for &w in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                    if !visited[w] {
                        visited[w] = true;
                        count += 1;
                        stack.push(w);
                    }
                }
            }
            if count != n {
                return Err(WfError::Disconnected);
            }
        }
        // Input coverage: non-input nodes must have all Sin relations
        // supplied by incoming edges.
        let inputs: Vec<NodeIdx> = (0..n)
            .filter(|&i| !has_incoming[i])
            .map(|i| NodeIdx(i as u32))
            .collect();
        for (i, node) in self.nodes.iter().enumerate() {
            if !has_incoming[i] {
                continue; // input node: Sin comes from outside
            }
            for rel in node.spec.input_names() {
                if !incoming_rels[i].contains(rel) {
                    return Err(WfError::UncoveredInput {
                        node: node.instance.clone(),
                        relation: rel.to_string(),
                    });
                }
            }
        }
        let outputs: Vec<NodeIdx> = (0..n)
            .filter(|&i| !has_outgoing[i])
            .map(|i| NodeIdx(i as u32))
            .collect();
        Ok(Workflow {
            nodes: self.nodes,
            edges: self.edges,
            inputs,
            outputs,
            topo,
            plans: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_nrel::{DataType, Schema};

    fn passthrough(name: &str) -> Arc<ModuleSpec> {
        let s = Schema::named(&[("x", DataType::Int)]);
        Arc::new(ModuleSpec {
            name: name.into(),
            input_schema: vec![("In".into(), s.clone())],
            state_schema: vec![],
            output_schema: vec![("Out".into(), s)],
            q_state: String::new(),
            q_out: "Out = FILTER In BY true;".into(),
        })
    }

    fn chain2() -> WorkflowBuilder {
        let mut b = WorkflowBuilder::new();
        let spec_a = {
            let s = Schema::named(&[("x", DataType::Int)]);
            Arc::new(ModuleSpec {
                name: "A".into(),
                input_schema: vec![("In".into(), s.clone())],
                state_schema: vec![],
                output_schema: vec![("Out".into(), s)],
                q_state: String::new(),
                q_out: "Out = FILTER In BY true;".into(),
            })
        };
        let spec_b = {
            let s = Schema::named(&[("x", DataType::Int)]);
            Arc::new(ModuleSpec {
                name: "B".into(),
                input_schema: vec![("Out".into(), s.clone())],
                state_schema: vec![],
                output_schema: vec![("Final".into(), s)],
                q_state: String::new(),
                q_out: "Final = FILTER Out BY true;".into(),
            })
        };
        let a = b.add_node("a", spec_a);
        let bnode = b.add_node("b", spec_b);
        b.add_edge(a, bnode, &["Out"]);
        b
    }

    #[test]
    fn valid_chain_builds() {
        let wf = chain2().build().unwrap();
        assert_eq!(wf.input_nodes(), &[NodeIdx(0)]);
        assert_eq!(wf.output_nodes(), &[NodeIdx(1)]);
        assert_eq!(wf.topo_order(), &[NodeIdx(0), NodeIdx(1)]);
        assert_eq!(wf.find("b").unwrap(), NodeIdx(1));
        assert!(wf.find("zzz").is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut b = WorkflowBuilder::new();
        let spec = passthrough("M");
        // make In/Out symmetric so edges type-check
        let spec = Arc::new(ModuleSpec {
            output_schema: vec![("In".into(), spec.input_schema[0].1.clone())],
            ..(*spec).clone()
        });
        let x = b.add_node("x", spec.clone());
        let y = b.add_node("y", spec);
        b.add_edge(x, y, &["In"]);
        b.add_edge(y, x, &["In"]);
        assert_eq!(b.build().unwrap_err(), WfError::Cyclic);
    }

    #[test]
    fn bad_edge_relation_rejected() {
        let mut b = chain2();
        // nodes 0 and 1 exist; add an edge with a bogus relation
        b.add_edge(NodeIdx(0), NodeIdx(1), &["Bogus"]);
        assert!(matches!(b.build(), Err(WfError::BadEdge { .. })));
    }

    #[test]
    fn duplicate_incoming_rejected() {
        let mut b = chain2();
        b.add_edge(NodeIdx(0), NodeIdx(1), &["Out"]);
        assert!(matches!(b.build(), Err(WfError::DuplicateIncoming { .. })));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut b = WorkflowBuilder::new();
        b.add_node("same", passthrough("M"));
        b.add_node("same", passthrough("M"));
        assert!(matches!(b.build(), Err(WfError::DuplicateInstance(_))));
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = WorkflowBuilder::new();
        b.add_node("a", passthrough("M"));
        b.add_node("b", passthrough("M"));
        assert_eq!(b.build().unwrap_err(), WfError::Disconnected);
    }

    #[test]
    fn uncovered_input_rejected() {
        let mut b = WorkflowBuilder::new();
        let s = Schema::named(&[("x", DataType::Int)]);
        let two_inputs = Arc::new(ModuleSpec {
            name: "Two".into(),
            input_schema: vec![("Out".into(), s.clone()), ("Other".into(), s.clone())],
            state_schema: vec![],
            output_schema: vec![("Final".into(), s)],
            q_state: String::new(),
            q_out: "Final = FILTER Out BY true;".into(),
        });
        let a = b.add_node("a", passthrough("M"));
        let t = b.add_node("t", two_inputs);
        b.add_edge(a, t, &["Out"]);
        assert!(matches!(b.build(), Err(WfError::UncoveredInput { .. })));
    }
}
