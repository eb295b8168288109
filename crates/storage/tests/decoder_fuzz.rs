//! Seeded mutation fuzzing of every storage decoder: v1 and v2 logs
//! (full load, lazy open + the role column's prefix pass + `verify_all`,
//! footer parse) and the `.tail`
//! sidecar (recovery, and payload decode past the checksum).
//!
//! The cases come from `common/fuzz_cases.rs`: each encodes one random
//! graph, then applies `MUTATIONS` rounds of `rand::mutate` (bit flips,
//! byte overwrites, truncations and spliced large decimals) to each
//! encoding. The assertions: no decoder
//! panics, and whatever decodes is safe to query — a loaded graph or a
//! verified paged log names only invocations its table holds, since a
//! query indexes the table by that id, and every `m` node carries an
//! invocation role, which expression extraction reads. Every decoder
//! must also size nothing from what the bytes merely declare: its
//! largest single allocation stays within [`allocation_bound`] of its
//! input. The budget is `PROPTEST_CASES` graphs × `MUTATIONS`, pinned
//! in CI.

mod common;
#[path = "common/fuzz_cases.rs"]
mod fuzz_cases;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::random_graph;
use fuzz_cases::{BASE_LEN, BASE_NODES, MUTATIONS};
use lipstick_core::graph::Node;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, Role};
use lipstick_storage::codec::{NodeRecord, MIN_RECORD_BYTES};
use lipstick_storage::tail::{self, TailRecord, FRAME_LEN};
use lipstick_storage::{decode_graph, LogIndex, PagedLog};

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

#[test]
fn mutated_encodings_never_panic_the_decoders() {
    for mut case in fuzz_cases::cases(random_graph) {
        let (seed, n) = (case.seed, case.graph.len());
        for _ in 0..MUTATIONS {
            case.round(
                |log| decode_log(log, n),
                |torn, payload, records| {
                    // Recovery keeps a clean prefix of what was written...
                    let recover = |b: &[u8]| tail::recover(b, BASE_LEN, BASE_NODES);
                    if let Ok((recovered, clean)) = bounded("tail::recover", torn, recover) {
                        assert!(clean <= torn.len(), "seed {seed}");
                        assert_eq!(recovered.as_slice(), &records[..recovered.len()]);
                    }
                    // ...so the payload decoder only ever sees checksummed
                    // bytes there; hand it garbage directly.
                    let _ = bounded("tail::decode_payload", payload, tail::decode_payload);
                },
            );
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
