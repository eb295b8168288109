//! Measurement drivers behind the `experiments` binary's figure tables.
//!
//! Absolute numbers differ from the paper's (its substrate was Pig 0.6
//! on Hadoop / a 2010 MacBook Pro; ours is an in-process engine), but
//! each driver reproduces the *shape* the paper reports: who is slower,
//! by what factor, and how curves scale.

use std::time::{Duration, Instant};

use lipstick_core::graph::stats::stats;
use lipstick_core::graph::{GraphTracker, NoTracker};
use lipstick_core::query::{propagate_deletion, subgraph, zoom_in, zoom_out};
use lipstick_core::{NodeKind, ProvGraph};
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_storage::{decode_graph, encode_graph};
use lipstick_workflow::parallel::execute_once_parallel;
use lipstick_workflow::WorkflowState;
use lipstick_workflowgen::{arctic, dealers, ArcticParams, DealersParams};

/// One measured run of the Car dealerships workflow.
pub struct DealersRun {
    pub elapsed: Duration,
    pub executions: usize,
    /// The provenance graph, when tracking was on.
    pub graph: Option<ProvGraph>,
}

/// Run the dealers workload with or without provenance (Fig 5(a)).
pub fn run_dealers(params: &DealersParams, with_provenance: bool) -> DealersRun {
    if with_provenance {
        let mut tracker = GraphTracker::new();
        let start = Instant::now();
        let (_, _, outcome) = dealers::run_declining(params, &mut tracker).expect("dealers run");
        let elapsed = start.elapsed();
        DealersRun {
            elapsed,
            executions: outcome.executions,
            graph: Some(tracker.finish()),
        }
    } else {
        let mut tracker = NoTracker;
        let start = Instant::now();
        let (_, _, outcome) = dealers::run_declining(params, &mut tracker).expect("dealers run");
        DealersRun {
            elapsed: start.elapsed(),
            executions: outcome.executions,
            graph: None,
        }
    }
}

/// Run the Arctic workload with or without provenance (Fig 5(b)).
pub fn run_arctic(params: &ArcticParams, with_provenance: bool) -> DealersRun {
    if with_provenance {
        let mut tracker = GraphTracker::new();
        let start = Instant::now();
        let (_, _, outs) = arctic::run(params, &mut tracker).expect("arctic run");
        let elapsed = start.elapsed();
        DealersRun {
            elapsed,
            executions: outs.len(),
            graph: Some(tracker.finish()),
        }
    } else {
        let mut tracker = NoTracker;
        let start = Instant::now();
        let (_, _, outs) = arctic::run(params, &mut tracker).expect("arctic run");
        DealersRun {
            elapsed: start.elapsed(),
            executions: outs.len(),
            graph: None,
        }
    }
}

/// Run the dealers workload on the parallel executor with the given
/// number of reducers (Fig 5(c)). Returns elapsed wall time.
pub fn run_dealers_parallel(
    params: &DealersParams,
    reducers: usize,
    with_provenance: bool,
) -> Duration {
    let mut udfs = UdfRegistry::new();
    let wf = dealers::build(&mut udfs);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let mut buyer = dealers::Buyer::draw(&mut rng);
    buyer.reserve = 0.0; // declining buyer: every execution happens

    if with_provenance {
        let mut tracker = GraphTracker::new();
        let mut state = WorkflowState::empty(&wf);
        dealers::seed_state(&wf, &mut state, &mut tracker, params).expect("seed");
        let start = Instant::now();
        for e in 0..params.num_exec {
            let input = dealers::execution_input(&buyer, e as u32, 0.99);
            let out = execute_once_parallel(
                &wf,
                &input,
                &mut state,
                &mut tracker,
                &udfs,
                e as u32,
                reducers,
            )
            .expect("parallel exec");
            debug_assert!(out.relation("Mcar", "Car").is_some());
        }
        start.elapsed()
    } else {
        let mut tracker = NoTracker;
        let mut state = WorkflowState::empty(&wf);
        dealers::seed_state(&wf, &mut state, &mut tracker, params).expect("seed");
        let start = Instant::now();
        for e in 0..params.num_exec {
            let input = dealers::execution_input(&buyer, e as u32, 0.99);
            let out = execute_once_parallel(
                &wf,
                &input,
                &mut state,
                &mut tracker,
                &udfs,
                e as u32,
                reducers,
            )
            .expect("parallel exec");
            debug_assert!(out.relation("Mcar", "Car").is_some());
        }
        start.elapsed()
    }
}

/// Serialize a graph, then measure loading it back into memory — the
/// Query Processor's graph-building step (Fig 6).
pub fn measure_graph_build(graph: &ProvGraph) -> (Duration, usize) {
    let bytes = encode_graph(graph).expect("no zoom active");
    let start = Instant::now();
    let loaded = decode_graph(&bytes).expect("round trip");
    let elapsed = start.elapsed();
    (elapsed, loaded.len())
}

/// Measure ZoomOut (and ZoomIn back) of one module (Fig 7(a)).
pub fn measure_zoom(graph: &mut ProvGraph, module: &str) -> (Duration, Duration) {
    let start = Instant::now();
    zoom_out(graph, &[module]).expect("zoom out");
    let out_time = start.elapsed();
    let start = Instant::now();
    zoom_in(graph, &[module]).expect("zoom in");
    let in_time = start.elapsed();
    (out_time, in_time)
}

/// Run subgraph queries from the `k` highest-fanout nodes (Fig 7(b));
/// returns (subgraph size, time) pairs.
pub fn measure_subgraphs(graph: &ProvGraph, k: usize) -> Vec<(usize, Duration)> {
    let roots = graph.top_fanout_nodes(k);
    let mut out = Vec::with_capacity(roots.len());
    for root in roots {
        let start = Instant::now();
        let result = subgraph(graph, root).expect("visible root");
        out.push((result.len(), start.elapsed()));
    }
    out
}

/// Propagate deletions from the `k` highest-fanout nodes (on clones;
/// §5.6 "Delete"); returns (deleted count, time) pairs.
pub fn measure_deletions(graph: &ProvGraph, k: usize) -> Vec<(usize, Duration)> {
    let roots = graph.top_fanout_nodes(k);
    let mut out = Vec::with_capacity(roots.len());
    for root in roots {
        let start = Instant::now();
        let (_, report) = propagate_deletion(graph, root).expect("visible root");
        out.push((report.deleted.len(), start.elapsed()));
    }
    out
}

/// §5.5 fine-grainedness: fraction of base/state tuples an output
/// depends on, for every module-output node of the final execution.
pub fn fine_grained_fractions(graph: &ProvGraph) -> Vec<f64> {
    let total_base = graph
        .iter_visible()
        .filter(|(_, n)| matches!(n.kind, NodeKind::BaseTuple { .. }))
        .count()
        .max(1);
    let outputs: Vec<_> = graph
        .iter_visible()
        .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
        .map(|(id, _)| id)
        .collect();
    outputs
        .iter()
        .rev()
        .take(16)
        .map(|&o| {
            let anc = lipstick_core::query::subgraph::ancestors(graph, o).expect("visible");
            let deps = anc
                .iter()
                .filter(|id| matches!(graph.node(**id).kind, NodeKind::BaseTuple { .. }))
                .count();
            deps as f64 / total_base as f64
        })
        .collect()
}

/// Graph size summary line used by the experiments binary.
pub fn graph_summary(graph: &ProvGraph) -> String {
    let s = stats(graph);
    format!("{} nodes / {} edges", s.nodes, s.edges)
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_workflowgen::{Selectivity, Topology};

    #[test]
    fn drivers_run_end_to_end_small() {
        let params = DealersParams {
            num_cars: 24,
            num_exec: 2,
            seed: 1,
        };
        let with = run_dealers(&params, true);
        let without = run_dealers(&params, false);
        assert!(with.graph.is_some());
        assert!(without.graph.is_none());
        assert_eq!(with.executions, without.executions);

        let g = with.graph.unwrap();
        let (build, nodes) = measure_graph_build(&g);
        assert!(nodes > 0);
        assert!(build.as_nanos() > 0);

        let mut g2 = g.clone();
        let (zo, zi) = measure_zoom(&mut g2, "Mdealer1");
        assert!(zo.as_nanos() > 0 && zi.as_nanos() > 0);
        assert_eq!(g2.visible_signature(), g.visible_signature());

        assert!(!measure_subgraphs(&g, 5).is_empty());
        assert!(!measure_deletions(&g, 5).is_empty());
        let fractions = fine_grained_fractions(&g);
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
    }

    #[test]
    fn parallel_driver_runs() {
        let params = DealersParams {
            num_cars: 24,
            num_exec: 2,
            seed: 1,
        };
        for reducers in [1, 3] {
            let d = run_dealers_parallel(&params, reducers, true);
            assert!(d.as_nanos() > 0);
        }
    }

    #[test]
    fn arctic_driver_runs() {
        let params = ArcticParams {
            stations: 3,
            topology: Topology::Dense { fanout: 2 },
            selectivity: Selectivity::Year,
            num_exec: 2,
            seed: 1,
        };
        let run = run_arctic(&params, true);
        assert!(run.graph.is_some());
    }
}
