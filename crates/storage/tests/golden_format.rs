//! The on-disk format, pinned: `fnv1a64` of a v1 log, a v2 log and a
//! `.tail` file written from one fixed sample. Round-trip tests pass
//! even when the layout changes under them; these fail, so a change to
//! any encoder that moves a byte of what users already have on disk —
//! or of `log_bytes_per_node` — has to be made on purpose.
//!
//! The sample holds every `NodeKind` (a retired zoom composite
//! included), every `Value` shape inside `Const` nodes, tombstones, two
//! invocations and multi-byte varints. The tail holds one record of
//! each of the four kinds. If a hash changes deliberately, the
//! assertion message prints the new value.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use lipstick_core::agg::AggOp;
use lipstick_core::graph::tracker::AggItemValue;
use lipstick_core::graph::GraphTracker;
use lipstick_core::obs::fnv1a64;
use lipstick_core::query::{plan_zoom_out, zoom_in, zoom_out};
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role, Tracker};
use lipstick_nrel::{bag, tuple, Tuple, Value};
use lipstick_storage::{
    encode_graph, encode_graph_v2, write_graph_v2_io, AppendLog, FaultIo, StorageIo,
};

fn sample_graph() -> ProvGraph {
    let mut t = GraphTracker::new();
    let wi = t.workflow_input("I1");
    let c2 = t.base("C2");
    let c3 = t.base(&"C".repeat(200));
    t.begin_invocation("Mdealer1", 0);
    let i = t.module_input(wi);
    let s2 = t.state_node(c2);
    let s3 = t.state_node(c3);
    let join = t.times(&[i, s2]);
    let grp = t.delta(&[join, s3]);
    let agg = t.agg(
        AggOp::Avg,
        &[
            (join, AggItemValue::Const(Value::Int(-3))),
            (s3, AggItemValue::Const(Value::Float(2.5))),
        ],
    );
    let bb = t.blackbox("CalcBid", &[grp, agg], true);
    let proj = t.plus(&[grp]);
    let out = t.module_output(proj, &[bb]);
    t.end_invocation();
    t.begin_invocation("Mzoomed", 70_000);
    let i2 = t.module_input(out);
    let x = t.times(&[i2]);
    let opaque = t.blackbox("Opaque", &[x], false);
    t.module_output(opaque, &[]);
    t.end_invocation();
    let mut g = t.finish();

    // A zoom pair leaves a retired composite behind.
    zoom_out(&mut g, &["Mzoomed"]).unwrap();
    zoom_in(&mut g, &["Mzoomed"]).unwrap();
    assert!(g
        .iter()
        .any(|(_, n)| matches!(n.kind, NodeKind::Zoomed { .. })));

    // Every value shape the codec knows, hung off the aggregate.
    let mut map = BTreeMap::new();
    map.insert("k".to_string(), Value::Bool(false));
    map.insert("z".to_string(), Value::str("v"));
    let values = [
        Value::Null,
        Value::Bool(true),
        Value::Int(i64::MIN),
        Value::Float(-0.0),
        Value::str("héllo ⊗"),
        Value::Tuple(tuple![1i64, "a"]),
        Value::Bag(bag![tuple!["b", 2i64], Tuple::new(vec![])]),
        Value::Map(Arc::new(map)),
    ];
    let mut consts = Vec::new();
    for value in values {
        let c = g.add_node(NodeKind::Const { value }, Role::Free);
        let tensor = g.add_node(NodeKind::Tensor, Role::Free);
        g.add_edge(c, tensor);
        g.add_edge(tensor, agg);
        consts.push(c);
    }
    // Tombstones: a value node and a state node.
    g.set_node_deleted(consts[3], true);
    g.set_node_deleted(s2, true);
    assert_eq!(g.invocations().len(), 2);
    g
}

/// A tail over the sample holding, in order, an ingested fragment, a
/// deletion, a zoom-out and a zoom-in.
fn sample_tail() -> Vec<u8> {
    let io = FaultIo::new();
    let path = Path::new("/golden/sample.lpstk");
    let base = sample_graph();
    write_graph_v2_io(&base, path, &io).unwrap();
    io.sync(path).unwrap();
    let mut log = AppendLog::open_with_io(path, Arc::new(io.clone())).unwrap();
    log.commit_fragment(&sample_graph()).unwrap();
    let n = base.len() as u32;
    log.commit_tombstones(&[NodeId(1), NodeId(n + 2)]).unwrap();
    let plans = plan_zoom_out(&log, &["Mdealer1"], &[], log.stash_count()).unwrap();
    log.commit_zoom_out(plans).unwrap();
    log.commit_zoom_in(&["Mdealer1".to_string()]).unwrap();
    assert_eq!(log.tail_records(), 4);
    io.contents(Path::new("/golden/sample.lpstk.tail")).unwrap()
}

fn assert_pinned(what: &str, bytes: &[u8], len: usize, hash: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, hash),
        "{what} changed: now {} bytes, fnv1a64 {:#018x}",
        bytes.len(),
        fnv1a64(bytes)
    );
}

#[test]
fn v1_log_bytes_are_pinned() {
    assert_pinned(
        "v1 log",
        &encode_graph(&sample_graph()).unwrap(),
        550,
        0x005a_8ecf_da19_b861,
    );
}

#[test]
fn v2_log_bytes_are_pinned() {
    assert_pinned(
        "v2 log",
        &encode_graph_v2(&sample_graph()).unwrap(),
        894,
        0xa92f_b734_b79b_e0b8,
    );
}

#[test]
fn tail_bytes_are_pinned() {
    assert_pinned("tail", &sample_tail(), 640, 0x02d7_4cae_e959_7a46);
}
