//! The cross-backend signature the append-log suites compare.

use lipstick_core::store::GraphStore;
use lipstick_core::NodeId;

/// Visible labelled nodes + visible edges (successor order is a
/// store's own business, so edges are compared sorted).
pub type StoreSignature = (Vec<(u32, String)>, Vec<(u32, u32)>);

pub fn store_signature<S: GraphStore + ?Sized>(s: &S) -> StoreSignature {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    for i in 0..s.node_count() {
        let id = NodeId(i as u32);
        if !s.is_visible(id) {
            continue;
        }
        nodes.push((id.0, s.kind_of(id).label()));
        for &t in s.succs_of(id).iter() {
            if s.is_visible(t) {
                edges.push((id.0, t.0));
            }
        }
    }
    edges.sort_unstable();
    (nodes, edges)
}
