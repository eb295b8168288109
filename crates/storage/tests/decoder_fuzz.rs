//! Seeded mutation fuzzing of every storage decoder: v1 and v2 logs
//! (full load, lazy open + `verify_all`, footer parse) and the `.tail`
//! sidecar (recovery, and payload decode past the checksum).
//!
//! Each case encodes one random graph, then applies `MUTATIONS` rounds
//! of bit flips, byte overwrites and truncations to each encoding. The
//! assertions: no decoder panics, and whatever decodes is safe to query
//! — a loaded graph or a verified paged log names only invocations its
//! table holds, since a query indexes the table by that id, and every
//! `m` node carries an invocation role, which expression extraction
//! reads. The budget
//! is `PROPTEST_CASES` graphs × `MUTATIONS`, pinned in CI.

mod common;

use common::{random_graph, Rng};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};
use lipstick_storage::codec::NodeRecord;
use lipstick_storage::tail::{self, TailRecord, FRAME_LEN};
use lipstick_storage::{decode_graph, encode_graph, encode_graph_v2, LogIndex, PagedLog};
use proptest::prelude::*;

/// Mutated inputs per encoding per case.
const MUTATIONS: usize = 64;

/// What the tail header binds to; any values do for decoding.
const BASE_LEN: u64 = 4096;
const BASE_NODES: u64 = 64;

/// One to three bit flips, byte overwrites or truncations of `src`.
fn mutate(src: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..1 + rng.below(3) {
        if out.is_empty() {
            break;
        }
        let at = rng.below(out.len());
        match rng.below(3) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.next().to_le_bytes()[0],
            _ => out.truncate(at),
        }
    }
    out
}

/// What a query reads through a node's role: the invocation it names
/// must be in the table, and an `m` node must name one.
fn assert_role_is_queryable(what: &str, kind: &NodeKind, role: Role, invocations: usize) {
    if let Some(inv) = role.invocation() {
        assert!(
            inv.index() < invocations,
            "{what} names invocation {} of {invocations}",
            inv.0
        );
    }
    if matches!(kind, NodeKind::Invocation) {
        assert!(
            matches!(role, Role::Invocation(_)),
            "{what} is an invocation node with role {}",
            role.name()
        );
    }
}

/// Every decoder of a sealed log over `bytes`, which claims
/// `node_count` nodes before it was mutated.
fn decode_log(bytes: &[u8], node_count: usize) {
    if let Ok(g) = decode_graph(bytes) {
        for (id, node) in g.iter() {
            assert_role_is_queryable(
                &format!("loaded node {id}"),
                &node.kind,
                node.role,
                g.invocations().len(),
            );
        }
    }
    let _ = LogIndex::parse(bytes, node_count);
    let Ok(paged) = PagedLog::from_bytes(bytes.to_vec()) else {
        return;
    };
    if paged.verify_all().is_err() {
        return;
    }
    // Verified: every accessor is now safe to call.
    for i in 0..paged.node_count() {
        let id = NodeId(i as u32);
        assert_role_is_queryable(
            &format!("paged node {id}"),
            &paged.kind_of(id),
            paged.role_of(id),
            paged.invocations().len(),
        );
        let _ = (paged.preds_of(id), paged.succs_of(id));
        let _ = paged.is_visible(id);
    }
}

/// A tail of one record of each kind, built from `g`.
fn tail_records(g: &ProvGraph) -> Vec<TailRecord> {
    let nodes = g
        .iter()
        .map(|(_, n)| NodeRecord {
            deleted: n.is_deleted(),
            role: n.role,
            kind: n.kind.clone(),
            preds: n.preds().to_vec(),
        })
        .collect();
    vec![
        TailRecord::AppendGraph {
            nodes,
            invocations: g.invocations().to_vec(),
        },
        TailRecord::Tombstones {
            ids: g.iter_visible().map(|(id, _)| id).collect(),
        },
        TailRecord::ZoomOut {
            modules: vec!["Malpha".into(), "Mbeta".into()],
        },
        TailRecord::ZoomIn {
            modules: vec!["Mbeta".into()],
        },
    ]
}

proptest! {
    #[test]
    fn mutated_encodings_never_panic_the_decoders(seed: u64) {
        let g = random_graph(seed);
        let v1 = encode_graph(&g).unwrap();
        let v2 = encode_graph_v2(&g).unwrap();
        let records = tail_records(&g);
        let frames: Vec<Vec<u8>> = records
            .iter()
            .map(|r| tail::encode_record(r).unwrap())
            .collect();
        let mut tail_file = tail::encode_header(BASE_LEN, BASE_NODES);
        for frame in &frames {
            tail_file.extend_from_slice(frame);
        }

        let mut rng = Rng(seed ^ 0xf022);
        for _ in 0..MUTATIONS {
            decode_log(&mutate(&v1, &mut rng), g.len());
            decode_log(&mutate(&v2, &mut rng), g.len());

            // Recovery keeps a clean prefix of what was written...
            let torn = mutate(&tail_file, &mut rng);
            if let Ok((recovered, clean)) = tail::recover(&torn, BASE_LEN, BASE_NODES) {
                prop_assert!(clean <= torn.len());
                prop_assert_eq!(recovered.as_slice(), &records[..recovered.len()]);
            }
            // ...so the payload decoder only ever sees checksummed
            // bytes there; hand it garbage directly.
            let frame = &frames[rng.below(frames.len())];
            let _ = tail::decode_payload(&mutate(&frame[FRAME_LEN..], &mut rng));
        }
    }
}
