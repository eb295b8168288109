//! Workflow execution tests: reference semantics, state threading,
//! provenance capture, and sequential/parallel agreement.

use std::sync::Arc;

use lipstick_core::graph::validate::{check_intermediate_tags, check_structure};
use lipstick_core::graph::{GraphTracker, NoTracker};
use lipstick_core::query::{propagate_deletion, zoom_in, zoom_out};
use lipstick_core::{NodeKind, Role, Tracker};
use lipstick_nrel::{tuple, Bag, DataType, Schema, Value};
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_piglatin::PigError;

use crate::dag::{Workflow, WorkflowBuilder};
use crate::error::WfError;
use crate::exec::{execute_once, execute_sequence, WorkflowInput, WorkflowState};
use crate::module::ModuleSpec;
use crate::parallel::{execute_once_parallel, ParallelTracker, RefMapper, RemapTable};

/// A two-stage workflow: source module forwards readings; sink module
/// keeps a running minimum using its state.
fn min_chain() -> (Workflow, UdfRegistry) {
    let readings = Schema::named(&[("Temp", DataType::Float)]);
    let source = Arc::new(ModuleSpec {
        name: "Msrc".into(),
        input_schema: vec![("Readings".into(), readings.clone())],
        state_schema: vec![],
        output_schema: vec![("Out".into(), readings.clone())],
        q_state: String::new(),
        q_out: "Out = FILTER Readings BY Temp > -9000.0;".into(),
    });
    let sink = Arc::new(ModuleSpec {
        name: "Mmin".into(),
        input_schema: vec![("Out".into(), readings.clone())],
        state_schema: vec![("History".into(), readings.clone())],
        output_schema: vec![("Best".into(), readings.clone())],
        q_state: "History = UNION History, Out;".into(),
        q_out: "G = GROUP History ALL; Best = FOREACH G GENERATE MIN(History.Temp) AS Temp;".into(),
    });
    let mut b = WorkflowBuilder::new();
    let s = b.add_node("src", source);
    let m = b.add_node("min", sink);
    b.add_edge(s, m, &["Out"]);
    (b.build().unwrap(), UdfRegistry::new())
}

fn input_with(temps: &[f64]) -> WorkflowInput {
    WorkflowInput::new().provide(
        "src",
        "Readings",
        temps.iter().map(|t| tuple![*t]).collect(),
    )
}

#[test]
fn single_execution_produces_output() {
    let (wf, udfs) = min_chain();
    let mut tracker = NoTracker;
    let mut state = WorkflowState::empty(&wf);
    let out = execute_once(
        &wf,
        &input_with(&[3.0, -2.0, 7.0]),
        &mut state,
        &mut tracker,
        &udfs,
        0,
    )
    .unwrap();
    let best = out.relation("min", "Best").unwrap();
    assert_eq!(best.rows[0].tuple, tuple![-2.0f64]);
    // state accumulated three readings
    assert_eq!(state.relation(&wf, "Mmin", "History").unwrap().len(), 3);
}

#[test]
fn state_threads_across_executions() {
    let (wf, udfs) = min_chain();
    let mut tracker = NoTracker;
    let mut state = WorkflowState::empty(&wf);
    let inputs = vec![
        input_with(&[5.0]),
        input_with(&[9.0]),
        input_with(&[1.0]),
        input_with(&[4.0]),
    ];
    let outs = execute_sequence(&wf, &inputs, &mut state, &mut tracker, &udfs).unwrap();
    let bests: Vec<Value> = outs
        .iter()
        .map(|o| {
            o.relation("min", "Best").unwrap().rows[0]
                .tuple
                .get(0)
                .unwrap()
                .clone()
        })
        .collect();
    // running minimum: 5, 5, 1, 1
    assert_eq!(
        bests,
        vec![
            Value::Float(5.0),
            Value::Float(5.0),
            Value::Float(1.0),
            Value::Float(1.0)
        ]
    );
    assert_eq!(state.total_tuples(), 4);
}

#[test]
fn provenance_capture_structure() {
    let (wf, udfs) = min_chain();
    let mut tracker = GraphTracker::new();
    let mut state = WorkflowState::empty(&wf);
    execute_sequence(
        &wf,
        &[input_with(&[5.0]), input_with(&[1.0])],
        &mut state,
        &mut tracker,
        &udfs,
    )
    .unwrap();
    let g = tracker.finish();
    check_structure(&g).unwrap();
    check_intermediate_tags(&g).unwrap();
    // 2 executions × 2 modules = 4 invocations
    assert_eq!(g.invocations().len(), 4);
    assert_eq!(g.invocations_of("Msrc").len(), 2);
    // workflow inputs, i/o/s nodes present
    let mut kinds = std::collections::HashSet::new();
    for (_, n) in g.iter_visible() {
        kinds.insert(std::mem::discriminant(&n.kind));
    }
    for want in [
        NodeKind::WorkflowInput { token: "x".into() },
        NodeKind::Invocation,
        NodeKind::ModuleInput,
        NodeKind::ModuleOutput,
        NodeKind::StateUnit,
        NodeKind::Plus,
        NodeKind::Delta,
        NodeKind::AggResult {
            op: lipstick_core::agg::AggOp::Min,
        },
    ] {
        assert!(
            kinds.contains(&std::mem::discriminant(&want)),
            "missing node kind {want:?}"
        );
    }
}

#[test]
fn second_execution_output_depends_on_first_input() {
    // The running minimum after E1 depends on E0's reading via state.
    let (wf, udfs) = min_chain();
    let mut tracker = GraphTracker::new();
    let mut state = WorkflowState::empty(&wf);
    execute_sequence(
        &wf,
        &[input_with(&[1.0]), input_with(&[5.0])],
        &mut state,
        &mut tracker,
        &udfs,
    )
    .unwrap();
    let g = tracker.finish();
    // Find E1's Best output o-node: invocation of "min" with execution 1.
    let min_inv_e1 = g
        .invocations_of("Mmin")
        .into_iter()
        .find(|i| g.invocation(*i).execution == 1)
        .unwrap();
    let o_node = g
        .iter_visible()
        .find(|(_, n)| n.role == Role::ModuleOutput(min_inv_e1))
        .map(|(id, _)| id)
        .unwrap();
    let expr = g.expr_of(o_node).to_string();
    assert!(
        expr.contains("I0.src.Readings.0"),
        "E1 output must reach back to E0's input through module state: {expr}"
    );
}

#[test]
fn zoom_roundtrip_on_executed_workflow() {
    let (wf, udfs) = min_chain();
    let mut tracker = GraphTracker::new();
    let mut state = WorkflowState::empty(&wf);
    execute_sequence(
        &wf,
        &[input_with(&[2.0]), input_with(&[8.0])],
        &mut state,
        &mut tracker,
        &udfs,
    )
    .unwrap();
    let mut g = tracker.finish();
    let before = g.visible_signature();
    zoom_out(&mut g, &["Mmin", "Msrc"]).unwrap();
    // coarse view: no intermediate nodes remain
    assert!(g
        .iter_visible()
        .all(|(_, n)| !matches!(n.role, Role::Intermediate(_))));
    zoom_in(&mut g, &["Msrc", "Mmin"]).unwrap();
    assert_eq!(g.visible_signature(), before);
}

#[test]
fn deletion_of_input_propagates_through_module() {
    let (wf, udfs) = min_chain();
    let mut tracker = GraphTracker::new();
    let mut state = WorkflowState::empty(&wf);
    let out = execute_once(&wf, &input_with(&[2.0]), &mut state, &mut tracker, &udfs, 0).unwrap();
    let best_prov = out.relation("min", "Best").unwrap().rows[0].ann.prov;
    let g = tracker.finish();
    let wf_input = g
        .iter_visible()
        .find(|(_, n)| matches!(n.kind, NodeKind::WorkflowInput { .. }))
        .map(|(id, _)| id)
        .unwrap();
    let (_, report) = propagate_deletion(&g, wf_input).unwrap();
    assert!(
        report.contains(best_prov),
        "with a single reading, the best-temperature output depends on it"
    );
}

#[test]
fn missing_output_relation_is_reported() {
    let s = Schema::named(&[("x", DataType::Int)]);
    let broken = Arc::new(ModuleSpec {
        name: "B".into(),
        input_schema: vec![("In".into(), s.clone())],
        state_schema: vec![],
        output_schema: vec![("Out".into(), s)],
        q_state: String::new(),
        q_out: "Other = FILTER In BY true;".into(), // never binds Out
    });
    let mut b = WorkflowBuilder::new();
    b.add_node("b", broken);
    let wf = b.build().unwrap();
    let mut state = WorkflowState::empty(&wf);
    let err = execute_once(
        &wf,
        &WorkflowInput::new().provide("b", "In", vec![tuple![1i64]]),
        &mut state,
        &mut NoTracker,
        &UdfRegistry::new(),
        0,
    )
    .unwrap_err();
    assert!(err.to_string().contains("Out"));
}

#[test]
fn empty_workflow_input_is_allowed() {
    // An execution with an empty bid request still runs (§1: such
    // executions exist; coarse provenance would not even record them,
    // but ours records the invocations).
    let (wf, udfs) = min_chain();
    let mut tracker = GraphTracker::new();
    let mut state = WorkflowState::empty(&wf);
    let out = execute_once(
        &wf,
        &WorkflowInput::new(),
        &mut state,
        &mut tracker,
        &udfs,
        0,
    )
    .unwrap();
    // GROUP ALL over an empty history produces no groups, hence an
    // empty Best relation.
    let best = out.relation("min", "Best").unwrap();
    assert!(best.is_empty());
    let g = tracker.finish();
    assert_eq!(
        g.invocations().len(),
        2,
        "invocations recorded despite empty input"
    );
}

// ---------- parallel executor ----------

/// A fan-out workflow: one source feeding `k` stateless workers feeding
/// one aggregator — the shape of the dealers workflow.
fn fan_out(k: usize) -> (Workflow, UdfRegistry) {
    let s = Schema::named(&[("V", DataType::Int)]);
    let source = Arc::new(ModuleSpec {
        name: "Src".into(),
        input_schema: vec![("In".into(), s.clone())],
        state_schema: vec![],
        output_schema: vec![("Req".into(), s.clone())],
        q_state: String::new(),
        q_out: "Req = FILTER In BY true;".into(),
    });
    let worker = Arc::new(ModuleSpec {
        name: "Worker".into(),
        input_schema: vec![("Req".into(), s.clone())],
        state_schema: vec![("Seen".into(), s.clone())],
        output_schema: vec![("Val".into(), s.clone())],
        q_state: "Seen = UNION Seen, Req;".into(),
        q_out: "G = GROUP Seen ALL; Val = FOREACH G GENERATE COUNT(Seen) AS V;".into(),
    });
    let sink = Arc::new(ModuleSpec {
        name: "Sink".into(),
        input_schema: (0..k).map(|i| (format!("Val{i}"), s.clone())).collect(),
        state_schema: vec![],
        output_schema: vec![("Total".into(), s.clone())],
        q_state: String::new(),
        q_out: {
            let unions = (0..k)
                .map(|i| format!("Val{i}"))
                .collect::<Vec<_>>()
                .join(", ");
            if k > 1 {
                format!(
                    "U = UNION {unions}; G = GROUP U ALL; Total = FOREACH G GENERATE SUM(U.V) AS V;"
                )
            } else {
                "G = GROUP Val0 ALL; Total = FOREACH G GENERATE SUM(Val0.V) AS V;".into()
            }
        },
    });
    // Worker output is named Val; the sink expects Val{i}. Use per-
    // instance worker specs whose output names differ.
    let mut b = WorkflowBuilder::new();
    let src = b.add_node("src", source);
    let sink_idx = b.add_node("sink", sink);
    for i in 0..k {
        let spec_i = Arc::new(ModuleSpec {
            name: format!("Worker{i}"),
            output_schema: vec![(format!("Val{i}"), s.clone())],
            q_out: format!("G = GROUP Seen ALL; Val{i} = FOREACH G GENERATE COUNT(Seen) AS V;"),
            ..(*worker).clone()
        });
        let w = b.add_node(format!("w{i}"), spec_i);
        b.add_edge(src, w, &["Req"]);
        let rel = format!("Val{i}");
        b.add_edge(w, sink_idx, &[rel.as_str()]);
    }
    (b.build().unwrap(), UdfRegistry::new())
}

#[test]
fn parallel_matches_sequential_data() {
    let (wf, udfs) = fan_out(4);
    let input = WorkflowInput::new().provide("src", "In", vec![tuple![1i64], tuple![2i64]]);

    let mut seq_state = WorkflowState::empty(&wf);
    let seq_out = execute_once(&wf, &input, &mut seq_state, &mut NoTracker, &udfs, 0).unwrap();

    for reducers in [1, 2, 4, 8] {
        let mut par_state = WorkflowState::empty(&wf);
        let mut tracker = NoTracker;
        let par_out = execute_once_parallel(
            &wf,
            &input,
            &mut par_state,
            &mut tracker,
            &udfs,
            0,
            reducers,
        )
        .unwrap();
        assert_eq!(
            par_out.relation("sink", "Total").unwrap().tuples(),
            seq_out.relation("sink", "Total").unwrap().tuples(),
            "reducers={reducers}"
        );
        assert_eq!(par_state.total_tuples(), seq_state.total_tuples());
    }
}

#[test]
fn parallel_provenance_graph_is_equivalent() {
    let (wf, udfs) = fan_out(3);
    let input = WorkflowInput::new().provide("src", "In", vec![tuple![7i64]]);

    let mut seq_state = WorkflowState::empty(&wf);
    let mut seq_tracker = GraphTracker::new();
    let seq_out = execute_once(&wf, &input, &mut seq_state, &mut seq_tracker, &udfs, 0).unwrap();
    let seq_g = seq_tracker.finish();

    let mut par_state = WorkflowState::empty(&wf);
    let mut par_tracker = GraphTracker::new();
    let par_out =
        execute_once_parallel(&wf, &input, &mut par_state, &mut par_tracker, &udfs, 0, 3).unwrap();
    let par_g = par_tracker.finish();
    check_structure(&par_g).unwrap();

    // Same node-kind census and invocation count, and the output's
    // provenance expression is identical up to token names.
    assert_eq!(seq_g.invocations().len(), par_g.invocations().len());
    let seq_stats = lipstick_core::graph::stats::stats(&seq_g);
    let par_stats = lipstick_core::graph::stats::stats(&par_g);
    assert_eq!(seq_stats.by_kind, par_stats.by_kind);
    assert_eq!(seq_stats.edges, par_stats.edges);

    let seq_prov = seq_out.relation("sink", "Total").unwrap().rows[0].ann.prov;
    let par_prov = par_out.relation("sink", "Total").unwrap().rows[0].ann.prov;
    let mut seq_tokens: Vec<String> = seq_g
        .expr_of(seq_prov)
        .tokens()
        .iter()
        .map(|t| t.to_string())
        .collect();
    let mut par_tokens: Vec<String> = par_g
        .expr_of(par_prov)
        .tokens()
        .iter()
        .map(|t| t.to_string())
        .collect();
    seq_tokens.sort();
    par_tokens.sort();
    assert_eq!(seq_tokens, par_tokens);
}

#[test]
fn parallel_sequence_threads_state() {
    let (wf, udfs) = fan_out(2);
    let mut state = WorkflowState::empty(&wf);
    let mut tracker = GraphTracker::new();
    for exec in 0..3u32 {
        let input = WorkflowInput::new().provide("src", "In", vec![tuple![exec as i64]]);
        let out =
            execute_once_parallel(&wf, &input, &mut state, &mut tracker, &udfs, exec, 4).unwrap();
        // each worker has seen exec+1 tuples; SUM over 2 workers
        let total = out.relation("sink", "Total").unwrap().rows[0]
            .tuple
            .get(0)
            .unwrap()
            .clone();
        assert_eq!(total, Value::Int(2 * (exec as i64 + 1)));
    }
    let g = tracker.finish();
    check_structure(&g).unwrap();
    assert_eq!(g.invocations().len(), 3 * 4);
}

#[test]
fn bag_semantics_of_worker_outputs() {
    // sanity: UNION of worker outputs has one tuple per worker
    let (wf, udfs) = fan_out(4);
    let input = WorkflowInput::new().provide("src", "In", vec![tuple![1i64]]);
    let mut state = WorkflowState::empty(&wf);
    let out = execute_once(&wf, &input, &mut state, &mut NoTracker, &udfs, 0).unwrap();
    let total = &out.relation("sink", "Total").unwrap().rows[0].tuple;
    assert_eq!(total.get(0).unwrap(), &Value::Int(4));
    let _ = Bag::empty(); // keep Bag import exercised
}

// ---------- failures and the plan cache ----------

/// A two-module chain: `src` keeps every reading it forwards in its
/// `Seen` state; `chk` keeps a `History` and passes it through the UDF
/// `Check`, which rejects negative readings.
fn checked_chain() -> (Workflow, UdfRegistry) {
    let readings = Schema::named(&[("Temp", DataType::Float)]);
    let source = Arc::new(ModuleSpec {
        name: "Msrc".into(),
        input_schema: vec![("Readings".into(), readings.clone())],
        state_schema: vec![("Seen".into(), readings.clone())],
        output_schema: vec![("Out".into(), readings.clone())],
        q_state: "Seen = UNION Seen, Readings;".into(),
        q_out: "Out = FILTER Readings BY true;".into(),
    });
    let check = Arc::new(ModuleSpec {
        name: "Mcheck".into(),
        input_schema: vec![("Out".into(), readings.clone())],
        state_schema: vec![("History".into(), readings.clone())],
        output_schema: vec![("Checked".into(), readings)],
        q_state: "History = UNION History, Out;".into(),
        q_out: "Checked = FOREACH History GENERATE Check(Temp) AS Temp;".into(),
    });
    let mut b = WorkflowBuilder::new();
    let s = b.add_node("src", source);
    let c = b.add_node("chk", check);
    b.add_edge(s, c, &["Out"]);
    let mut udfs = UdfRegistry::new();
    udfs.register("Check", true, None, |args| {
        let t = args[0].as_f64().map_err(|e| e.to_string())?;
        if t < 0.0 {
            Err(format!("negative reading {t}"))
        } else {
            Ok(Value::Float(t))
        }
    });
    (b.build().unwrap(), udfs)
}

fn rel_len<R: Copy>(state: &WorkflowState<R>, wf: &Workflow, module: &str, rel: &str) -> usize {
    state.relation(wf, module, rel).map_or(0, |r| r.len())
}

/// A UDF error in `chk` fails the execution, leaves `chk`'s state as it
/// was and the tracker outside any invocation, so the next execution
/// runs normally. `src`, which completed before the failure, keeps its
/// committed state.
fn failed_invocation_keeps_state<T: ParallelTracker + Send>(tracker: &mut T, parallel: bool)
where
    T::Ref: Send + Sync,
    RemapTable<T::Ref>: RefMapper<T::Ref>,
{
    let (wf, udfs) = checked_chain();
    let mut state = WorkflowState::empty(&wf);
    let mut run = |temps: &[f64], state: &mut WorkflowState<T::Ref>, e: u32| {
        let input = input_with(temps);
        if parallel {
            execute_once_parallel(&wf, &input, state, tracker, &udfs, e, 2)
        } else {
            execute_once(&wf, &input, state, tracker, &udfs, e)
        }
    };
    run(&[1.0], &mut state, 0).unwrap();
    let err = run(&[-1.0], &mut state, 1).unwrap_err();
    assert!(
        matches!(
            &err,
            WfError::Pig { node, error: PigError::Udf { name, .. } }
                if node == "chk" && name == "Check"
        ),
        "{err}"
    );
    assert_eq!(rel_len(&state, &wf, "Mcheck", "History"), 1);
    assert_eq!(rel_len(&state, &wf, "Msrc", "Seen"), 2);

    let out = run(&[2.0], &mut state, 2).unwrap();
    assert_eq!(
        out.relation("chk", "Checked").unwrap().tuples().len(),
        2,
        "History holds the readings of the two executions that succeeded"
    );
    assert_eq!(rel_len(&state, &wf, "Mcheck", "History"), 2);
    assert_eq!(rel_len(&state, &wf, "Msrc", "Seen"), 3);
}

#[test]
fn failed_invocation_keeps_state_sequential_untracked() {
    failed_invocation_keeps_state(&mut NoTracker, false);
}

#[test]
fn failed_invocation_keeps_state_sequential_tracked() {
    let mut tracker = GraphTracker::new();
    failed_invocation_keeps_state(&mut tracker, false);
    // The failed invocation is recorded; both later ones are whole.
    assert_eq!(tracker.finish().invocations_of("Mcheck").len(), 3);
}

#[test]
fn failed_invocation_keeps_state_parallel_untracked() {
    failed_invocation_keeps_state(&mut NoTracker, true);
}

#[test]
fn failed_invocation_keeps_state_parallel_tracked() {
    let mut tracker = GraphTracker::new();
    failed_invocation_keeps_state(&mut tracker, true);
    let g = tracker.finish();
    check_structure(&g).unwrap();
    // A failed worker's shard is dropped, never absorbed.
    assert_eq!(g.invocations_of("Mcheck").len(), 2);
}

/// The tracker is usable after a failure: a fresh invocation begins.
#[test]
fn tracker_leaves_a_failed_invocation() {
    let (wf, udfs) = checked_chain();
    let mut state = WorkflowState::empty(&wf);
    let mut tracker = GraphTracker::new();
    execute_once(
        &wf,
        &input_with(&[-1.0]),
        &mut state,
        &mut tracker,
        &udfs,
        0,
    )
    .unwrap_err();
    tracker.begin_invocation("Mprobe", 1);
    tracker.end_invocation();
}

/// A module whose one UDF, `Bid`, flattens into a bag typed by the
/// registry's declared output schema.
fn bid_workflow() -> Workflow {
    let req = Schema::named(&[("X", DataType::Int)]);
    let bids = Schema::named(&[("Amount", DataType::Float)]);
    let mut b = WorkflowBuilder::new();
    b.add_node(
        "bid",
        ModuleSpec::stateless(
            "Mbid",
            ("Req", req),
            ("Bids", bids),
            "Bids = FOREACH Req GENERATE FLATTEN(Bid(X));",
        ),
    );
    b.build().unwrap()
}

/// Register `Bid` as `x ↦ {(2x)}` with schema `(Amount)`.
fn register_doubling(udfs: &mut UdfRegistry) {
    let schema = Schema::named(&[("Amount", DataType::Float)]);
    udfs.register("Bid", true, Some(schema), |args| {
        let x = args[0].as_f64().map_err(|e| e.to_string())?;
        Ok(Value::Bag(lipstick_nrel::bag![tuple![2.0 * x]]))
    });
}

/// Register `Bid` as `x ↦ {(3x, 'B')}` with schema `(Amount, Dealer)`.
fn register_tripling(udfs: &mut UdfRegistry) {
    let schema = Schema::named(&[("Amount", DataType::Float), ("Dealer", DataType::Str)]);
    udfs.register("Bid", true, Some(schema), |args| {
        let x = args[0].as_f64().map_err(|e| e.to_string())?;
        Ok(Value::Bag(lipstick_nrel::bag![tuple![3.0 * x, "B"]]))
    });
}

/// Run `bid` once on `X = 5` and return its output fields and tuples.
fn bid_once(wf: &Workflow, udfs: &UdfRegistry, e: u32) -> (Vec<Option<String>>, Vec<String>) {
    let input = WorkflowInput::new().provide("bid", "Req", vec![tuple![5i64]]);
    let mut state = WorkflowState::empty(wf);
    let out = execute_once(wf, &input, &mut state, &mut NoTracker, udfs, e).unwrap();
    let bids = out.relation("bid", "Bids").unwrap();
    let fields = bids
        .schema
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let rows = bids.rows.iter().map(|r| r.tuple.to_string()).collect();
    (fields, rows)
}

#[test]
fn one_workflow_follows_each_registry() {
    let wf = bid_workflow();
    let mut doubling = UdfRegistry::new();
    register_doubling(&mut doubling);
    let mut tripling = UdfRegistry::new();
    register_tripling(&mut tripling);
    let want_doubling = (
        vec![Some("Amount".to_string())],
        vec![tuple![10.0].to_string()],
    );
    let want_tripling = (
        vec![Some("Amount".to_string()), Some("Dealer".to_string())],
        vec![tuple![15.0, "B"].to_string()],
    );
    for e in 0..2 {
        assert_eq!(bid_once(&wf, &doubling, 2 * e), want_doubling);
        assert_eq!(bid_once(&wf, &tripling, 2 * e + 1), want_tripling);
    }
    // Sequential and parallel read the same plans.
    let input = WorkflowInput::new().provide("bid", "Req", vec![tuple![5i64]]);
    let mut state = WorkflowState::empty(&wf);
    let par =
        execute_once_parallel(&wf, &input, &mut state, &mut NoTracker, &tripling, 4, 2).unwrap();
    assert_eq!(
        par.relation("bid", "Bids").unwrap().tuples(),
        vec![tuple![15.0, "B"]]
    );
}

#[test]
fn register_between_executions_takes_effect() {
    let wf = bid_workflow();
    let mut udfs = UdfRegistry::new();
    register_doubling(&mut udfs);
    let (fields, rows) = bid_once(&wf, &udfs, 0);
    assert_eq!((fields.len(), rows), (1, vec![tuple![10.0].to_string()]));
    register_tripling(&mut udfs);
    let (fields, rows) = bid_once(&wf, &udfs, 1);
    assert_eq!(
        (fields.len(), rows),
        (2, vec![tuple![15.0, "B"].to_string()])
    );
}

/// Every module compiles before the first one runs: `chk` cannot
/// compile against a registry without `Check`, and the execution fails
/// before `src`, upstream of it and stateful, changes anything. The
/// plans cached for the first registry are not reused for the second.
#[test]
fn compile_failure_downstream_changes_no_state() {
    let (wf, udfs) = checked_chain();
    let mut state = WorkflowState::empty(&wf);
    let mut tracker = GraphTracker::new();
    execute_once(&wf, &input_with(&[1.0]), &mut state, &mut tracker, &udfs, 0).unwrap();
    let before = state.total_tuples();
    let no_check = UdfRegistry::new();
    for parallel in [false, true] {
        let input = input_with(&[2.0]);
        let err = if parallel {
            execute_once_parallel(&wf, &input, &mut state, &mut tracker, &no_check, 1, 2)
        } else {
            execute_once(&wf, &input, &mut state, &mut tracker, &no_check, 1)
        }
        .unwrap_err();
        assert!(
            matches!(&err, WfError::Pig { node, error: PigError::UnknownUdf(name) }
                if node == "chk" && name == "Check"),
            "{err}"
        );
        assert_eq!(state.total_tuples(), before, "parallel={parallel}");
    }
    assert_eq!(
        tracker.finish().invocations().len(),
        2,
        "only execution 0 ran"
    );
}
