//! COMPACT splices the sealed bytes instead of decoding and re-encoding
//! the graph. These tests hold the splice to the re-encode, byte for
//! byte: a resident `ProvGraph` mirrors every mutation a random script
//! commits to an `AppendLog`, and after each COMPACT the file on disk
//! must equal `encode_graph_v2` of that mirror, parse as a sealed v2
//! log, and reopen to the same store. A second test checks what the
//! splice makes possible: the fault cache survives the COMPACT and
//! answers exactly like a cold open of the new file.

mod signature;

use std::fs;
use std::path::PathBuf;

use lipstick_core::graph::{GraphTracker, RETIRED_STASH};
use lipstick_core::query::deletion::compute_deletion;
use lipstick_core::query::{plan_zoom_out, zoom_in, zoom_out};
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Tracker};
use lipstick_storage::{encode_graph_v2, write_graph_v2, AppendLog, PagedLog};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use signature::store_signature;

const MODULES: [&str; 3] = ["Mload", "Mjoin", "Magg"];

/// One workflow run: each module (or, with `extra_module`, one more
/// whose name the log has never seen) chained off shared base tuples,
/// with a state tuple per invocation. Ends with a node wired *into* an
/// earlier one, so the fragment carries a forward reference — a pred
/// whose id is larger than the node's own.
fn workflow_graph(rng: &mut StdRng, execution: u32, extra_module: Option<&str>) -> ProvGraph {
    let mut t = GraphTracker::new();
    let mut feed: Vec<_> = (0..2 + rng.below(3))
        .map(|i| t.base(&format!("t{execution}_{i}")))
        .collect();
    let state = t.base(&format!("s{execution}"));
    let mut first_plus = None;
    for module in MODULES.iter().copied().chain(extra_module) {
        if rng.below(4) == 0 && Some(module) != extra_module {
            continue; // this run skips the module
        }
        t.begin_invocation(module, execution);
        let tuple = t.plus(&feed.clone());
        first_plus.get_or_insert(tuple);
        let input = t.module_input(tuple);
        let s = t.state_node(state);
        let mut x = t.times(&[input, s]);
        for _ in 0..rng.below(3) {
            x = t.times(&[x]);
        }
        let out = t.module_output(x, &[]);
        t.end_invocation();
        feed.push(out);
    }
    let last = t.plus(&feed.clone());
    let mut g = t.finish();
    let late = g.add_base(&format!("late{execution}"));
    g.add_edge(late, first_plus.unwrap_or(last));
    g
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lipstick-compact-splice-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.lpstk"));
    // A tail left by an aborted earlier run would replay on open.
    fs::remove_file(format!("{}.tail", path.display())).ok();
    path
}

/// The log and the resident graph every commit is mirrored into.
struct Mirrored {
    path: PathBuf,
    log: AppendLog,
    mirror: ProvGraph,
    execution: u32,
    /// Composites of zoom pairs since the last COMPACT.
    retired: Vec<NodeId>,
}

impl Mirrored {
    fn create(tag: &str, base: ProvGraph) -> Mirrored {
        let path = temp_path(tag);
        write_graph_v2(&base, &path).unwrap();
        Mirrored {
            log: AppendLog::open(&path).unwrap(),
            path,
            mirror: base,
            execution: 0,
            retired: Vec::new(),
        }
    }

    fn ingest(&mut self, rng: &mut StdRng, extra_module: Option<&str>) {
        self.execution += 1;
        let fragment = workflow_graph(rng, self.execution, extra_module);
        assert!(
            fragment
                .iter()
                .any(|(id, n)| n.preds().iter().any(|p| p.0 > id.0)),
            "fragments carry a forward reference"
        );
        self.log.commit_fragment(&fragment).unwrap();
        self.mirror.splice(&fragment);
    }

    /// Tombstone the deletion cone of a random visible node — sealed or
    /// appended, whichever the roll lands on.
    fn delete(&mut self, rng: &mut StdRng) {
        let visible: Vec<NodeId> = self.mirror.iter_visible().map(|(id, _)| id).collect();
        if visible.is_empty() {
            return;
        }
        let root = visible[rng.below(visible.len())];
        let cone = compute_deletion(&self.log, root).unwrap().deleted;
        self.log.commit_tombstones(&cone).unwrap();
        for &id in &cone {
            self.mirror.set_node_deleted(id, true);
        }
    }

    /// ZOOM OUT a module, commit `between` while it is out, ZOOM IN.
    fn zoom_pair(&mut self, rng: &mut StdRng, between: impl FnOnce(&mut Mirrored, &mut StdRng)) {
        let module = MODULES[rng.below(MODULES.len())];
        let Ok(plans) = plan_zoom_out(&self.log, &[module], &[], self.log.stash_count()) else {
            return; // the module never ran
        };
        let created = self.log.commit_zoom_out(plans).unwrap();
        assert_eq!(created, zoom_out(&mut self.mirror, &[module]).unwrap());
        assert_eq!(store_signature(&self.log), store_signature(&self.mirror));
        between(self, rng);
        self.log.commit_zoom_in(&[module.to_string()]).unwrap();
        zoom_in(&mut self.mirror, &[module]).unwrap();
        self.retired.extend(created);
    }

    fn compact_and_check(&mut self) {
        self.log.compact().unwrap();
        self.check_sealed();
    }

    /// Hold the file a COMPACT just wrote to the re-encode of the
    /// mirror.
    fn check_sealed(&mut self) {
        assert_eq!(self.log.tail_records(), 0);

        let image = fs::read(&self.path).unwrap();
        assert!(
            image == encode_graph_v2(&self.mirror).unwrap(),
            "spliced image differs from encode_graph_v2 of the mirror"
        );
        // `from_bytes` runs the header checks and `LogIndex::parse`.
        let sealed = PagedLog::from_bytes(image).unwrap();
        sealed.verify_all().unwrap();
        for &z in &self.retired {
            assert_eq!(
                *sealed.kind_of(z),
                NodeKind::Zoomed {
                    stash: RETIRED_STASH
                },
                "retired composite {z} is persisted as the sentinel"
            );
            assert!(!sealed.is_visible(z));
        }
        self.retired.clear();

        let reopened = AppendLog::open(&self.path).unwrap();
        for store in [&self.log, &reopened] {
            assert_eq!(store_signature(store), store_signature(&self.mirror));
            assert_eq!(store.invocations(), self.mirror.invocations());
            assert_eq!(store.visible_count(), self.mirror.visible_count());
            assert_eq!(store.node_count(), self.mirror.len());
        }
    }

    fn remove_files(self) {
        fs::remove_file(&self.path).ok();
        fs::remove_file(format!("{}.tail", self.path.display())).ok();
    }
}

fn random_step(m: &mut Mirrored, rng: &mut StdRng) {
    match rng.below(6) {
        0 | 1 => m.ingest(rng, None),
        2 => {
            let name = format!("Mnew{}", m.execution);
            m.ingest(rng, Some(&name));
        }
        3 | 4 => m.delete(rng),
        _ => m.zoom_pair(rng, |m, rng| match rng.below(3) {
            0 => m.ingest(rng, None),
            1 => m.delete(rng),
            _ => {}
        }),
    }
}

proptest! {
    #[test]
    fn spliced_image_is_the_reencode_byte_for_byte(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = workflow_graph(&mut rng, 0, None);
        // Some seeds start from a base that already holds tombstones.
        if rng.below(2) == 0 {
            let root = NodeId(rng.below(base.len()) as u32);
            for id in compute_deletion(&base, root).unwrap().deleted {
                base.set_node_deleted(id, true);
            }
        }
        let mut m = Mirrored::create(&format!("prop-{seed:016x}"), base);

        for _ in 0..2 + rng.below(4) {
            random_step(&mut m, &mut rng);
        }
        // Mid-script COMPACT; half the time carry on with a fresh open
        // of what it wrote instead of the live log.
        m.compact_and_check();
        if rng.below(2) == 0 {
            m.log = AppendLog::open(&m.path).unwrap();
        }
        for _ in 0..1 + rng.below(4) {
            random_step(&mut m, &mut rng);
        }
        m.compact_and_check();
        // Nothing in the tail: COMPACT still rewrites the same image.
        m.compact_and_check();
        m.remove_files();
    }
}

/// 127 nodes fit the header's node count in one varint byte, 128 do
/// not: every sealed record moves by one byte, and every offset in the
/// footer with it.
#[test]
fn header_varint_growth_shifts_every_sealed_record() {
    let mut rng = StdRng::seed_from_u64(128);
    let mut base = ProvGraph::new();
    base.splice(&workflow_graph(&mut rng, 0, None));
    while base.len() < 127 {
        base.add_base(&format!("pad{}", base.len()));
    }
    assert_eq!(base.len(), 127);
    let mut m = Mirrored::create("varint", base);
    let before = fs::read(&m.path).unwrap();
    m.delete(&mut rng);
    m.ingest(&mut rng, Some("Mgrown"));
    assert!(m.mirror.len() >= 128);
    m.compact_and_check();
    let after = fs::read(&m.path).unwrap();
    assert_eq!(before[6], 127, "one-byte node count");
    assert_eq!(after[6] & 0x80, 0x80, "two-byte node count");
    m.remove_files();
}

/// After faulting every record, tombstoning some and COMPACTing, the
/// warm store answers like a cold open of the new file — and decodes
/// nothing it had already decoded.
#[test]
fn warm_cache_across_compact_answers_like_a_cold_open() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut m = Mirrored::create("warm", workflow_graph(&mut rng, 0, None));
    m.ingest(&mut rng, None);
    m.compact_and_check();
    let sealed_nodes = m.log.node_count();

    let part = |log: &dyn GraphStore, name: &str| -> usize {
        let parts = log.memory_breakdown();
        parts.iter().find(|(n, _)| *n == name).expect(name).1
    };

    m.log.verify_all().unwrap();
    assert_eq!(m.log.faults(), sealed_nodes, "every sealed record decoded");
    m.delete(&mut rng);
    m.ingest(&mut rng, Some("Mwarm"));
    let faults = m.log.faults();
    // An untouched open reports the cache's top table alone, which grows
    // with the node count; what the live log reports above that is the
    // blocks it allocated and the records decoded into them.
    let decoded = |m: &Mirrored| {
        let untouched = PagedLog::open(&m.path).unwrap();
        part(&m.log, "fault_cache") - part(&untouched, "fault_cache")
    };
    let cache = decoded(&m);
    assert!(cache > 0);
    let overlay = part(&m.log, "tail_overlay");

    m.log.compact().unwrap();
    assert_eq!(decoded(&m), cache, "decoded-record bytes carried over");
    // What is left is what a fresh open of the new file starts with
    // (the merged invocation table is accounted there).
    let fresh = AppendLog::open(&m.path).unwrap();
    assert_eq!(part(&m.log, "tail_overlay"), part(&fresh, "tail_overlay"));
    assert!(part(&m.log, "tail_overlay") < overlay);
    assert_eq!(m.log.faults(), faults, "faults() did not restart");

    let cold = PagedLog::open(&m.path).unwrap();
    assert!(cold.node_count() > sealed_nodes);
    let mut last = m.log.faults();
    for i in 0..cold.node_count() {
        let id = NodeId(i as u32);
        assert_eq!(m.log.is_visible(id), cold.is_visible(id), "{id}");
        assert_eq!(m.log.kind_of(id), cold.kind_of(id), "{id}");
        assert_eq!(m.log.role_of(id), cold.role_of(id), "{id}");
        assert_eq!(m.log.preds_of(id), cold.preds_of(id), "{id}");
        assert_eq!(m.log.succs_of(id), cold.succs_of(id), "{id}");
        assert!(m.log.faults() >= last, "faults() never decreases");
        last = m.log.faults();
    }
    // Only the records the overlay held were decoded by that sweep.
    assert_eq!(m.log.faults() - faults, cold.node_count() - sealed_nodes);
    m.check_sealed();
    m.remove_files();
}

/// The fault cache crosses a COMPACT in blocks of 32 consecutive ids.
/// 127 sealed records end one slot short of a block boundary, so the
/// records COMPACT seals start in the last slot of a carried block and
/// run on into blocks the old base never had.
#[test]
fn carried_cache_meets_new_records_inside_a_block() {
    const SEALED: usize = 127;
    let mut rng = StdRng::seed_from_u64(64);
    let mut base = ProvGraph::new();
    base.splice(&workflow_graph(&mut rng, 0, None));
    while base.len() < SEALED {
        base.add_base(&format!("pad{}", base.len()));
    }
    assert_eq!(base.len(), SEALED);
    let mut m = Mirrored::create("block-edge", base);
    m.log.verify_all().unwrap();
    assert_eq!(m.log.faults(), SEALED);
    m.ingest(&mut rng, None);
    assert!(
        m.mirror.len() > SEALED + 1,
        "the overlay crosses into the next block"
    );

    m.log.compact().unwrap();
    assert_eq!(m.log.faults(), SEALED, "faults() did not restart");
    // Backwards: the new records first, the carried block's last slot
    // among them, then everything that was decoded before the COMPACT.
    for i in (0..m.mirror.len()).rev() {
        let (id, before) = (NodeId(i as u32), m.log.faults());
        let node = m.mirror.node(id);
        assert_eq!(*m.log.kind_of(id), node.kind, "kind of {id}");
        assert_eq!(m.log.role_of(id), node.role, "role of {id}");
        assert_eq!(*m.log.preds_of(id), *node.preds(), "preds of {id}");
        let decoded = m.log.faults() - before;
        assert_eq!(decoded, usize::from(i >= SEALED), "decodes of {id}");
    }
    m.log.verify_all().unwrap();
    assert_eq!(m.log.faults(), m.mirror.len(), "every record exactly once");
    m.check_sealed();
    m.remove_files();
}
