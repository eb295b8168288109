//! Helpers shared by the storage integration tests.

use lipstick_core::{InvocationId, NodeId, ProvGraph, Role};

fn offset_role(role: Role, by: u32) -> Role {
    let shift = |InvocationId(i)| InvocationId(i + by);
    match role {
        Role::WorkflowInput | Role::Free => role,
        Role::Invocation(i) => Role::Invocation(shift(i)),
        Role::ModuleInput(i) => Role::ModuleInput(shift(i)),
        Role::ModuleOutput(i) => Role::ModuleOutput(shift(i)),
        Role::State(i) => Role::State(shift(i)),
        Role::Intermediate(i) => Role::Intermediate(shift(i)),
        Role::Zoom(i) => Role::Zoom(shift(i)),
    }
}

/// Append `fragment` to a resident graph the way
/// `AppendLog::commit_fragment` appends it to the log: ids and
/// invocation ids shifted past the graph, every node created before any
/// edge is wired (a fragment edge may point at a later fragment node).
pub fn resident_append(g: &mut ProvGraph, fragment: &ProvGraph) {
    let node_off = g.len() as u32;
    let inv_off = g.invocations().len() as u32;
    for (_, n) in fragment.iter() {
        g.add_node(n.kind.clone(), offset_role(n.role, inv_off));
    }
    for (to, n) in fragment.iter() {
        for p in n.preds() {
            g.add_edge(NodeId(p.0 + node_off), NodeId(to.0 + node_off));
        }
    }
    for inv in fragment.invocations() {
        let m_node = NodeId(inv.m_node.0 + node_off);
        g.register_invocation(inv.module.clone(), inv.execution, m_node);
    }
}
