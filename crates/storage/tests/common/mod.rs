//! What the storage integration tests share: a seeded generator and
//! the random provenance graphs built from it.

use lipstick_core::agg::AggOp;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};
use lipstick_nrel::Value;

/// Deterministic xorshift so every proptest case is reproducible from
/// its seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A random DAG exercising kinds, roles, invocations, edges to earlier
/// nodes, and tombstones.
pub fn random_graph(seed: u64) -> ProvGraph {
    let mut rng = Rng(seed);
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
                value: Value::Int(rng.next() as i64),
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
