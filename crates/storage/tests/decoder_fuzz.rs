//! Seeded mutation fuzzing of every storage decoder: v1 and v2 logs
//! (full load, lazy open + the role column's prefix pass + `verify_all`,
//! footer parse) and the `.tail`
//! sidecar (recovery, and payload decode past the checksum).
//!
//! Each case encodes one random graph, then applies `MUTATIONS` rounds
//! of `rand::mutate` (bit flips, byte overwrites, truncations and
//! spliced large decimals) to each encoding. The assertions: no decoder
//! panics, and whatever decodes is safe to query — a loaded graph or a
//! verified paged log names only invocations its table holds, since a
//! query indexes the table by that id, and every `m` node carries an
//! invocation role, which expression extraction reads. Every decoder
//! must also size nothing from what the bytes merely declare: its
//! largest single allocation stays within [`allocation_bound`] of its
//! input. The budget is `PROPTEST_CASES` graphs × `MUTATIONS`, pinned
//! in CI.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::random_graph;
use lipstick_core::graph::Node;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};
use lipstick_storage::codec::{NodeRecord, MIN_RECORD_BYTES};
use lipstick_storage::tail::{self, TailRecord, FRAME_LEN};
use lipstick_storage::{decode_graph, encode_graph, encode_graph_v2, LogIndex, PagedLog};
use proptest::prelude::*;
use rand::{mutate, rngs::StdRng, SeedableRng};

/// Records the largest single allocation this thread asks for.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged, so the caller's `GlobalAlloc` contract
// carries over; the bookkeeping on the side only touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// `f`'s result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The most a decoder may allocate at once for `input_len` bytes: one
/// per-record element — a node-table [`Node`] slot or a tail's
/// [`NodeRecord`], whichever is larger — per smallest possible record
/// (`size / MIN_RECORD_BYTES` per input byte), plus 1 KiB. A node
/// table, pred buffer, table or record list reserved from a declared
/// count, which `Reader::count` bounds at only one byte per item,
/// breaks it.
fn allocation_bound(input_len: usize) -> usize {
    let per_record = std::mem::size_of::<Node>().max(std::mem::size_of::<NodeRecord>());
    per_record / MIN_RECORD_BYTES * input_len + 1024
}

/// Run `decode` on `input` and check its allocations stay in bound.
fn bounded<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let (out, largest) = largest_allocation(|| decode(input));
    assert!(
        largest <= allocation_bound(input.len()),
        "{what}: a {largest}-byte allocation from {} input bytes",
        input.len()
    );
    out
}

/// Mutated inputs per encoding per case.
const MUTATIONS: usize = 64;

/// What the tail header binds to; any values do for decoding.
const BASE_LEN: u64 = 4096;
const BASE_NODES: u64 = 64;

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
    let loaded = bounded("decode_graph", bytes, decode_graph).ok();
    if let Some(g) = &loaded {
        for (id, node) in g.iter() {
            assert_role_is_queryable(
                &format!("loaded node {id}"),
                &node.kind,
                node.role,
                g.invocations().len(),
            );
        }
    }
    let _ = bounded("LogIndex::parse", bytes, |b| LogIndex::parse(b, node_count));
    let Some(paged) = bounded("PagedLog::from_bytes", bytes, |b| {
        PagedLog::from_bytes(b.to_vec()).ok()
    }) else {
        return;
    };
    // The role column's pass reads every record's leading bytes before
    // any record is verified: it stays in bounds, and a damaged record
    // answers with the fault path's error, not a panic.
    bounded("role column", bytes, |_| {
        for i in 0..paged.node_count() {
            let _ = paged.try_role_of(NodeId(i as u32));
        }
    });
    if bounded("verify_all", bytes, |_| paged.verify_all()).is_err() {
        return;
    }
    // Verified: every accessor is now safe to call, and the column
    // agrees with the records.
    for i in 0..paged.node_count() {
        let id = NodeId(i as u32);
        if let Some(g) = loaded.as_ref().filter(|g| g.len() == paged.node_count()) {
            assert_eq!(
                paged.try_role_of(id).ok(),
                Some(g.node(id).role),
                "role of {id}"
            );
        }
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

        let mut rng = StdRng::seed_from_u64(seed ^ 0xf022);
        for _ in 0..MUTATIONS {
            decode_log(&mutate(&v1, &mut rng), g.len());
            decode_log(&mutate(&v2, &mut rng), g.len());

            // Recovery keeps a clean prefix of what was written...
            let torn = mutate(&tail_file, &mut rng);
            let recover = |b: &[u8]| tail::recover(b, BASE_LEN, BASE_NODES);
            if let Ok((recovered, clean)) = bounded("tail::recover", &torn, recover) {
                prop_assert!(clean <= torn.len());
                prop_assert_eq!(recovered.as_slice(), &records[..recovered.len()]);
            }
            // ...so the payload decoder only ever sees checksummed
            // bytes there; hand it garbage directly.
            let payload = mutate(&rng.pick(&frames)[FRAME_LEN..], &mut rng);
            let _ = bounded("tail::decode_payload", &payload, tail::decode_payload);
        }
    }
}

/// The allocation check bites: a log whose header declares as many
/// records as it has bytes loads within the bound, and an arena
/// reserved from that declared count would not.
#[test]
fn a_declared_node_count_would_break_the_allocation_bound() {
    let declared = 4096;
    let mut log = b"LPSTK\x01".to_vec();
    lipstick_storage::varint::put_len(&mut log, declared);
    log.resize(log.len() + declared, 0);
    let (loaded, largest) = largest_allocation(|| decode_graph(&log));
    assert!(loaded.is_err(), "zero bytes are no records");
    assert!(largest <= allocation_bound(log.len()), "{largest}");
    let (_, upfront) = largest_allocation(|| Vec::<Node>::with_capacity(declared));
    assert!(upfront > allocation_bound(log.len()), "{upfront}");
}

/// So is a tail payload's: an `AppendGraph` declaring as many records
/// as its remaining bytes allow reserves only what they could hold.
#[test]
fn a_declared_record_count_is_capped_by_the_payload() {
    let empty = TailRecord::AppendGraph {
        nodes: Vec::new(),
        invocations: Vec::new(),
    };
    let mut payload = tail::encode_record(&empty).unwrap()[FRAME_LEN..=FRAME_LEN].to_vec();
    payload.push(35);
    payload.resize(45, 0);
    let (_, largest) = largest_allocation(|| tail::decode_payload(&payload));
    assert!(largest <= allocation_bound(payload.len()), "{largest}");
    let (_, upfront) = largest_allocation(|| Vec::<NodeRecord>::with_capacity(35));
    assert!(upfront > allocation_bound(payload.len()), "{upfront}");
}
