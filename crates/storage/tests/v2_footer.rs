//! v2 footer round-trip and corruption tests: write-with-index →
//! open-lazy → full-load must agree node-for-node, and truncated or
//! garbled footers must come back as errors, never panics.

mod common;

use common::random_graph;
use lipstick_core::graph::RETIRED_STASH;
use lipstick_core::query::{zoom_in, zoom_out};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph};
use lipstick_storage::{decode_graph, encode_graph_v2, PagedLog};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Node-for-node agreement between the original graph, the lazy reader,
/// and the full loader.
fn assert_three_way_agreement(g: &ProvGraph) {
    let bytes = encode_graph_v2(g).unwrap();
    let full = decode_graph(&bytes).unwrap();
    let paged = PagedLog::from_bytes(bytes).unwrap();

    assert_eq!(full.len(), g.len());
    assert_eq!(paged.node_count(), g.len());
    for (id, node) in g.iter() {
        let loaded = full.node(id);
        assert_eq!(loaded.kind, node.kind, "full-load kind of {id}");
        assert_eq!(loaded.role, node.role, "full-load role of {id}");
        assert_eq!(loaded.preds(), node.preds(), "full-load preds of {id}");
        assert_eq!(loaded.is_visible(), node.is_visible());

        assert_eq!(*paged.kind_of(id), node.kind, "paged kind of {id}");
        assert_eq!(paged.role_of(id), node.role, "paged role of {id}");
        assert_eq!(*paged.preds_of(id), *node.preds());
        assert_eq!(paged.is_visible(id), node.is_visible());
        let mut succs = node.succs().to_vec();
        succs.sort();
        assert_eq!(*paged.succs_of(id), *succs, "paged succs of {id}");
    }
    assert_eq!(paged.invocations().len(), g.invocations().len());
    for (a, b) in g.invocations().iter().zip(paged.invocations()) {
        assert_eq!(
            (&a.module, a.execution, a.m_node),
            (&b.module, b.execution, b.m_node)
        );
    }
    // Postings agree with a resident scan.
    for m in ["Malpha", "Mbeta", "Mnope"] {
        let expect: Vec<NodeId> = g
            .iter_visible()
            .filter(|(_, n)| {
                n.role
                    .invocation()
                    .is_some_and(|inv| g.invocation(inv).module == m)
            })
            .map(|(id, _)| id)
            .collect();
        assert_eq!(*paged.module_postings(m), *expect, "postings of {m}");
    }
}

proptest! {
    #[test]
    fn v2_round_trip_agrees_node_for_node(seed: u64) {
        assert_three_way_agreement(&random_graph(seed));
    }

    #[test]
    fn truncated_v2_files_error_not_panic(seed: u64) {
        let g = random_graph(seed);
        let bytes = encode_graph_v2(&g).unwrap();
        // Any truncation loses the trailer (it sits at EOF), so the
        // lazy open must fail cleanly.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..16 {
            let cut = rng.below(bytes.len());
            prop_assert!(PagedLog::from_bytes(bytes[..cut].to_vec()).is_err());
        }
        // The sequential full loader ignores the footer, so it accepts
        // cuts that only lose footer bytes — but any cut inside the
        // record region must still be rejected exactly as for v1.
        let records_end = PagedLog::from_bytes(bytes.clone())
            .unwrap()
            .index()
            .invocations_offset();
        for _ in 0..8 {
            let cut = rng.below(records_end);
            prop_assert!(decode_graph(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn garbled_footer_bytes_never_panic(seed: u64) {
        let g = random_graph(seed);
        let bytes = encode_graph_v2(&g).unwrap();
        // Find the footer region: everything after the invocation
        // table. Flipping bytes there may still parse (e.g. inside a
        // posted name) but must never panic or wrap into a huge
        // allocation.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        for _ in 0..24 {
            let mut mutated = bytes.clone();
            let at = bytes.len() - 1 - rng.below(bytes.len().min(96));
            mutated[at] ^= 1 << rng.below(8);
            if let Ok(paged) = PagedLog::from_bytes(mutated) {
                // If the index still parses, reading through it must
                // stay memory-safe: decode every record, tolerating
                // per-record errors.
                let _ = paged.verify_all();
            }
        }
    }
}

#[test]
fn retired_zoom_composite_round_trips_the_sentinel() {
    let mut t = lipstick_core::graph::GraphTracker::new();
    use lipstick_core::Tracker;
    let wi = t.workflow_input("I1");
    t.begin_invocation("M", 0);
    let i = t.module_input(wi);
    let j = t.times(&[i]);
    t.module_output(j, &[]);
    t.end_invocation();
    let mut g = t.finish();
    zoom_out(&mut g, &["M"]).unwrap();
    zoom_in(&mut g, &["M"]).unwrap();

    let retired: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Zoomed { .. }))
        .map(|(id, _)| id)
        .collect();
    assert!(!retired.is_empty());
    for &id in &retired {
        assert_eq!(
            g.node(id).kind,
            NodeKind::Zoomed {
                stash: RETIRED_STASH
            },
            "ZoomIn remaps the dead stash index to the sentinel"
        );
    }

    let bytes = encode_graph_v2(&g).unwrap();
    let full = decode_graph(&bytes).unwrap();
    let paged = PagedLog::from_bytes(bytes).unwrap();
    for &id in &retired {
        assert_eq!(full.node(id).kind, g.node(id).kind, "exact round trip");
        assert_eq!(*paged.kind_of(id), g.node(id).kind);
        assert!(!paged.is_visible(id));
    }
}
