//! What the storage integration tests share: the random provenance
//! graphs built from the workspace's seeded generator.

use lipstick_core::agg::AggOp;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};
use lipstick_nrel::Value;
use rand::{rngs::StdRng, SeedableRng};

/// A random DAG exercising kinds, roles, invocations, edges to earlier
/// nodes, and tombstones.
pub fn random_graph(seed: u64) -> ProvGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ProvGraph::new();
    let modules = ["Malpha", "Mbeta"];
    let mut invs = Vec::new();
    for (i, m) in modules.iter().enumerate() {
        let (inv, _) = g.add_invocation(m, i as u32);
        invs.push(inv);
    }
    let n = 3 + rng.below(40);
    for i in 0..n {
        let kind = match rng.below(8) {
            0 => NodeKind::BaseTuple {
                token: lipstick_core::Token::new(format!("t{i}")),
            },
            1 => NodeKind::Plus,
            2 => NodeKind::Times,
            3 => NodeKind::Delta,
            4 => NodeKind::Const {
                value: Value::Int(rng.next_u64() as i64),
            },
            5 => NodeKind::Tensor,
            6 => NodeKind::AggResult { op: AggOp::Count },
            _ => NodeKind::BlackBox {
                name: format!("bb{i}"),
                is_value: rng.below(2) == 0,
            },
        };
        let role = match rng.below(3) {
            0 => Role::Free,
            1 => Role::Intermediate(invs[rng.below(invs.len())]),
            _ => Role::State(invs[rng.below(invs.len())]),
        };
        let id = g.add_node(kind, role);
        // Edges from strictly earlier nodes keep the graph acyclic.
        let earlier = id.index();
        for _ in 0..rng.below(3.min(earlier + 1)) {
            let from = NodeId(rng.below(earlier) as u32);
            if from != id {
                g.add_edge(from, id);
            }
        }
    }
    // Tombstone a random sprinkle of nodes.
    for i in 0..g.len() {
        if rng.below(6) == 0 {
            g.set_node_deleted(NodeId(i as u32), true);
        }
    }
    g
}
