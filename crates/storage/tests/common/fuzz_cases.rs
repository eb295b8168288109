//! The inputs the storage decoder mutation fuzz feeds its decoders,
//! shared by `tests/decoder_fuzz.rs` and the footer parser's oracle test
//! (`footer::tests`), so both see the same cases.
//!
//! A case is one random graph's v1 and v2 encodings and a `.tail` of one
//! record of each kind built from it; each of its [`MUTATIONS`] rounds
//! applies `rand::mutate` (bit flips, byte overwrites, truncations and
//! spliced large decimals) to each of them, in a fixed draw order. The
//! budget is `PROPTEST_CASES` cases × `MUTATIONS`, pinned in CI.

use lipstick_core::ProvGraph;
use lipstick_storage::codec::NodeRecord;
use lipstick_storage::tail::{self, TailRecord, FRAME_LEN};
use lipstick_storage::{encode_graph, encode_graph_v2};
use proptest::{Arbitrary, ProptestConfig};
use rand::{mutate, rngs::StdRng, SeedableRng};

/// Mutated inputs per encoding per case.
pub const MUTATIONS: usize = 64;

/// What the tail header binds to; any values do for decoding.
pub const BASE_LEN: u64 = 4096;
pub const BASE_NODES: u64 = 64;

/// One case: a graph, its encodings, and a tail built from it.
pub struct Case {
    pub seed: u64,
    pub graph: ProvGraph,
    pub v2: Vec<u8>,
    v1: Vec<u8>,
    /// One record of each kind, each one framed, and the whole `.tail`
    /// file they make.
    records: Vec<TailRecord>,
    frames: Vec<Vec<u8>>,
    tail_file: Vec<u8>,
    rng: StdRng,
}

/// The `PROPTEST_CASES` cases, each built by `graph` from its seed. The
/// seeds are drawn as `proptest!` draws a `seed: u64` argument of the
/// test `decoder_fuzz::mutated_encodings_never_panic_the_decoders`.
pub fn cases(graph: impl Fn(u64) -> ProvGraph) -> impl Iterator<Item = Case> {
    let mut seeds = proptest::test_rng("decoder_fuzz::mutated_encodings_never_panic_the_decoders");
    (0..ProptestConfig::default().cases).map(move |_| {
        let seed = u64::arbitrary(&mut seeds);
        Case::new(seed, graph(seed))
    })
}

impl Case {
    fn new(seed: u64, graph: ProvGraph) -> Case {
        let v1 = encode_graph(&graph).unwrap();
        let v2 = encode_graph_v2(&graph).unwrap();
        let records = tail_records(&graph);
        let frames: Vec<Vec<u8>> = records
            .iter()
            .map(|r| tail::encode_record(r).unwrap())
            .collect();
        let mut tail_file = tail::encode_header(BASE_LEN, BASE_NODES);
        for frame in &frames {
            tail_file.extend_from_slice(frame);
        }
        Case {
            seed,
            graph,
            v1,
            v2,
            records,
            frames,
            tail_file,
            rng: StdRng::seed_from_u64(seed ^ 0xf022),
        }
    }

    /// One round: `log` gets the mutated v1 log, then the mutated v2
    /// log; `tail` gets the mutated tail file, one frame's mutated
    /// payload, and the records the tail was written from. The mutants
    /// are drawn in that order.
    pub fn round(
        &mut self,
        mut log: impl FnMut(&[u8]),
        tail: impl FnOnce(&[u8], &[u8], &[TailRecord]),
    ) {
        log(&mutate(&self.v1, &mut self.rng));
        log(&mutate(&self.v2, &mut self.rng));
        let torn = mutate(&self.tail_file, &mut self.rng);
        let payload = mutate(&self.rng.pick(&self.frames)[FRAME_LEN..], &mut self.rng);
        tail(&torn, &payload, &self.records);
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
