//! The Arctic stations workflow family (paper §5.2, Figure 4).
//!
//! Station modules hold monthly meteorological observations
//! (1961–2000) as state, take a new measurement per execution (a
//! `Measure` black box), compute the lowest air temperature w.r.t. the
//! query's *selectivity* (all / season / month / year — fractions 1,
//! 1/4, 1/12, ≤12/480 of the state), fold in the minima received from
//! upstream stations, and output the running minimum. An input module
//! distributes the query; an output module takes the overall minimum.
//!
//! Topologies: *serial* (a chain), *parallel* (no station-to-station
//! edges), and *dense* (layers of `fanout` stations, fully bipartite
//! between consecutive layers — Figure 4(c)).
//!
//! The NSIDC dataset is replaced by [`observations`], a deterministic
//! synthetic generator with the same shape (480 monthly rows per
//! station, seasonal temperature structure). Selectivity drives
//! provenance-graph density exactly as in the paper, which is what the
//! Figure 6/7 experiments measure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lipstick_core::Tracker;
use lipstick_nrel::{Bag, DataType, Schema, Tuple, Value};
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_workflow::{
    execute_once, ExecutionOutput, ModuleSpec, Result, Workflow, WorkflowBuilder, WorkflowInput,
    WorkflowState,
};
use rand::mix;

/// Workflow topology (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `in → s0 → s1 → … → out`
    Serial,
    /// All stations independent, all feeding the output module.
    Parallel,
    /// Layers of `fanout` stations; consecutive layers fully connected.
    Dense { fanout: usize },
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::Serial => write!(f, "serial"),
            Topology::Parallel => write!(f, "parallel"),
            Topology::Dense { fanout } => write!(f, "dense(fan-out {fanout})"),
        }
    }
}

/// Query selectivity: which state tuples a station's minimum considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selectivity {
    /// All historical measurements (fraction 1).
    All,
    /// The current season's measurements (1/4).
    Season,
    /// The current month's (1/12).
    Month,
    /// The current year's (≤ 12 tuples).
    Year,
}

impl Selectivity {
    /// The fraction of state tuples selected (the paper's accounting).
    pub fn fraction(&self) -> f64 {
        match self {
            Selectivity::All => 1.0,
            Selectivity::Season => 0.25,
            Selectivity::Month => 1.0 / 12.0,
            Selectivity::Year => 12.0 / 480.0,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Selectivity::All => "all",
            Selectivity::Season => "season",
            Selectivity::Month => "month",
            Selectivity::Year => "year",
        }
    }
}

impl std::fmt::Display for Selectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcticParams {
    /// Number of station modules (2–24 in the paper).
    pub stations: usize,
    pub topology: Topology,
    pub selectivity: Selectivity,
    /// Number of workflow executions per run.
    pub num_exec: usize,
    pub seed: u64,
}

impl Default for ArcticParams {
    fn default() -> Self {
        ArcticParams {
            stations: 4,
            topology: Topology::Parallel,
            selectivity: Selectivity::Month,
            num_exec: 10,
            seed: 42,
        }
    }
}

/// Season of a month (meteorological seasons).
pub fn season_of(month: i64) -> &'static str {
    match month {
        12 | 1 | 2 => "winter",
        3..=5 => "spring",
        6..=8 => "summer",
        _ => "autumn",
    }
}

fn obs_schema() -> Schema {
    Schema::named(&[
        ("Year", DataType::Int),
        ("Month", DataType::Int),
        ("Season", DataType::Str),
        ("Tair", DataType::Float),
        ("Pressure", DataType::Float),
        ("Humidity", DataType::Float),
        ("Wind", DataType::Float),
        ("Precip", DataType::Float),
    ])
}

fn query_schema() -> Schema {
    Schema::named(&[
        ("Year", DataType::Int),
        ("Month", DataType::Int),
        ("Season", DataType::Str),
    ])
}

fn min_schema() -> Schema {
    Schema::named(&[("Temp", DataType::Float)])
}

/// A keyed draw in `[0, 1)` from an observation's coordinates.
fn noise(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let z = mix(seed ^ mix(a) ^ mix(b.wrapping_mul(31)) ^ mix(c.wrapping_mul(1009)));
    (z >> 11) as f64 / (1u64 << 53) as f64 // [0, 1)
}

/// One station's synthetic monthly observation.
fn observation(station: usize, seed: u64, year: i64, month: i64, sample: u64) -> Tuple {
    let s = station as u64;
    // Seasonal structure: Arctic winters near -30 °C, summers near 5 °C.
    let phase = (month as f64 - 1.5) / 12.0 * std::f64::consts::TAU;
    let seasonal = -13.0 - 17.0 * phase.cos();
    let station_offset = (s % 7) as f64 * 1.3 - 4.0;
    let jitter = (noise(seed, s, (year * 12 + month) as u64, sample) - 0.5) * 8.0;
    let tair = seasonal + station_offset + jitter;
    Tuple::new(vec![
        Value::Int(year),
        Value::Int(month),
        Value::str(season_of(month)),
        Value::Float((tair * 10.0).round() / 10.0),
        Value::Float(1000.0 + (noise(seed, s + 1, year as u64, month as u64) - 0.5) * 40.0),
        Value::Float(60.0 + noise(seed, s + 2, year as u64, month as u64) * 35.0),
        Value::Float(noise(seed, s + 3, year as u64, month as u64) * 20.0),
        Value::Float(noise(seed, s + 4, year as u64, month as u64) * 50.0),
    ])
}

/// The full 1961–2000 monthly history for one station (480 rows) — the
/// synthetic substitute for the NSIDC dataset.
pub fn observations(station: usize, seed: u64) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(480);
    for year in 1961..=2000i64 {
        for month in 1..=12i64 {
            out.push(observation(station, seed, year, month, 0));
        }
    }
    out
}

/// Incoming-minimum relation name produced by station `i`.
fn min_rel(i: usize) -> String {
    format!("Min{i}")
}

/// Build the selectivity-specific output query of station `i`, given
/// the stations feeding minima into it.
fn station_qout(i: usize, selectivity: Selectivity, upstream: &[usize]) -> String {
    let local = match selectivity {
        Selectivity::All => "RelG = GROUP Obs ALL;
             LocalMin = FOREACH RelG GENERATE MIN(Obs.Tair) AS Temp;"
            .to_string(),
        Selectivity::Season => "Rel = JOIN Obs BY Season, Query BY Season;
             RelG = GROUP Rel ALL;
             LocalMin = FOREACH RelG GENERATE MIN(Rel.Tair) AS Temp;"
            .to_string(),
        Selectivity::Month => "Rel = JOIN Obs BY Month, Query BY Month;
             RelG = GROUP Rel ALL;
             LocalMin = FOREACH RelG GENERATE MIN(Rel.Tair) AS Temp;"
            .to_string(),
        Selectivity::Year => "Rel = JOIN Obs BY Year, Query BY Year;
             RelG = GROUP Rel ALL;
             LocalMin = FOREACH RelG GENERATE MIN(Rel.Tair) AS Temp;"
            .to_string(),
    };
    let combine = if upstream.is_empty() {
        format!(
            "MinG = GROUP LocalMin ALL;
             Min{i} = FOREACH MinG GENERATE MIN(LocalMin.Temp) AS Temp;"
        )
    } else {
        let rels: Vec<String> = std::iter::once("LocalMin".to_string())
            .chain(upstream.iter().map(|j| min_rel(*j)))
            .collect();
        format!(
            "AllMins = UNION {};
             MinG = GROUP AllMins ALL;
             Min{i} = FOREACH MinG GENERATE MIN(AllMins.Temp) AS Temp;",
            rels.join(", ")
        )
    };
    format!("{local}\n{combine}")
}

fn station_spec(i: usize, selectivity: Selectivity, upstream: &[usize]) -> Arc<ModuleSpec> {
    let mut input_schema = vec![("Query".to_string(), query_schema())];
    for &j in upstream {
        input_schema.push((min_rel(j), min_schema()));
    }
    Arc::new(ModuleSpec {
        name: format!("Msta{i}"),
        input_schema,
        state_schema: vec![("Obs".into(), obs_schema())],
        output_schema: vec![(min_rel(i), min_schema())],
        q_state: format!(
            "NewObs = FOREACH Query GENERATE FLATTEN(Measure{i}(Year, Month, Season));
             Obs = UNION Obs, NewObs;"
        ),
        q_out: station_qout(i, selectivity, upstream),
    })
}

/// Register the per-station `Measure` black boxes: a new observation per
/// invocation, deterministic in (station, seed, call counter).
pub fn register_udfs(udfs: &mut UdfRegistry, stations: usize, seed: u64) {
    for i in 0..stations {
        let counter = Arc::new(AtomicU64::new(1));
        let schema = obs_schema();
        udfs.register(format!("Measure{i}"), false, Some(schema), move |args| {
            let year = args[0].as_i64().map_err(|e| e.to_string())?;
            let month = args[1].as_i64().map_err(|e| e.to_string())?;
            let sample = counter.fetch_add(1, Ordering::Relaxed);
            let obs = observation(i, seed, year, month, sample);
            Ok(Value::Bag(Bag::from_tuples(vec![obs])))
        });
    }
}

/// Compute each station's upstream stations under a topology.
pub fn upstream_map(stations: usize, topology: Topology) -> Vec<Vec<usize>> {
    let mut up = vec![Vec::new(); stations];
    match topology {
        Topology::Parallel => {}
        Topology::Serial => {
            for (i, ups) in up.iter_mut().enumerate().skip(1) {
                ups.push(i - 1);
            }
        }
        Topology::Dense { fanout } => {
            let fanout = fanout.max(1);
            for (i, ups) in up.iter_mut().enumerate() {
                let layer = i / fanout;
                if layer > 0 {
                    let prev_start = (layer - 1) * fanout;
                    let prev_end = (layer * fanout).min(stations);
                    ups.extend(prev_start..prev_end);
                }
            }
        }
    }
    up
}

/// The stations that feed the output module (the DAG's sinks).
pub fn sink_stations(stations: usize, topology: Topology) -> Vec<usize> {
    match topology {
        Topology::Parallel => (0..stations).collect(),
        Topology::Serial => vec![stations - 1],
        Topology::Dense { fanout } => {
            let fanout = fanout.max(1);
            let last_layer = (stations - 1) / fanout;
            (last_layer * fanout..stations).collect()
        }
    }
}

/// Build the Arctic workflow and register its UDFs.
pub fn build(params: &ArcticParams, udfs: &mut UdfRegistry) -> Workflow {
    assert!(params.stations >= 1, "need at least one station");
    register_udfs(udfs, params.stations, params.seed);
    let upstream = upstream_map(params.stations, params.topology);
    let sinks = sink_stations(params.stations, params.topology);

    let mut b = WorkflowBuilder::new();
    let min_in = b.add_node(
        "Min",
        Arc::new(ModuleSpec {
            name: "Min".into(),
            input_schema: vec![("QueryIn".into(), query_schema())],
            state_schema: vec![],
            output_schema: vec![("Query".into(), query_schema())],
            q_state: String::new(),
            q_out: "Query = FILTER QueryIn BY true;".into(),
        }),
    );

    let station_nodes: Vec<_> = (0..params.stations)
        .map(|i| {
            b.add_node(
                format!("Msta{i}"),
                station_spec(i, params.selectivity, &upstream[i]),
            )
        })
        .collect();
    for (i, &node) in station_nodes.iter().enumerate() {
        b.add_edge(min_in, node, &["Query"]);
        for &j in &upstream[i] {
            let rel = min_rel(j);
            b.add_edge(station_nodes[j], node, &[rel.as_str()]);
        }
    }

    let out_spec = {
        let input_schema: Vec<(String, Schema)> =
            sinks.iter().map(|&i| (min_rel(i), min_schema())).collect();
        let q_out = if sinks.len() == 1 {
            let r = min_rel(sinks[0]);
            format!(
                "MinG = GROUP {r} ALL;
                 MinTemp = FOREACH MinG GENERATE MIN({r}.Temp) AS Temp;"
            )
        } else {
            let rels: Vec<String> = sinks.iter().map(|&i| min_rel(i)).collect();
            format!(
                "AllMins = UNION {};
                 MinG = GROUP AllMins ALL;
                 MinTemp = FOREACH MinG GENERATE MIN(AllMins.Temp) AS Temp;",
                rels.join(", ")
            )
        };
        Arc::new(ModuleSpec {
            name: "Mout".into(),
            input_schema,
            state_schema: vec![],
            output_schema: vec![("MinTemp".into(), min_schema())],
            q_state: String::new(),
            q_out,
        })
    };
    let out_node = b.add_node("Mout", out_spec);
    for &i in &sinks {
        let rel = min_rel(i);
        b.add_edge(station_nodes[i], out_node, &[rel.as_str()]);
    }

    b.build().expect("arctic workflow is statically valid")
}

/// Seed every station's `Obs` state with its 1961–2000 history.
pub fn seed_state<T: Tracker>(
    wf: &Workflow,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    params: &ArcticParams,
) -> Result<()> {
    for i in 0..params.stations {
        let obs = observations(i, params.seed);
        state.seed(wf, &format!("Msta{i}"), "Obs", obs, tracker, move |j, _| {
            format!("S{i}.O{j}")
        })?;
    }
    Ok(())
}

/// The query input of one execution: current year/month cycling through
/// 2001, 2002, … month by month.
pub fn query_input(execution: u32) -> WorkflowInput {
    let month = (execution % 12) as i64 + 1;
    let year = 2001 + (execution / 12) as i64;
    WorkflowInput::new().provide(
        "Min",
        "QueryIn",
        vec![Tuple::new(vec![
            Value::Int(year),
            Value::Int(month),
            Value::str(season_of(month)),
        ])],
    )
}

/// What [`run`] returns: the workflow, final state, and per-execution
/// outputs.
pub type ArcticRun<R> = (Workflow, WorkflowState<R>, Vec<ExecutionOutput<R>>);

/// Execute a full run of `num_exec` executions; returns the workflow,
/// final state, and the per-execution outputs.
pub fn run<T: Tracker>(params: &ArcticParams, tracker: &mut T) -> Result<ArcticRun<T::Ref>> {
    let mut udfs = UdfRegistry::new();
    let wf = build(params, &mut udfs);
    let mut state = WorkflowState::empty(&wf);
    seed_state(&wf, &mut state, tracker, params)?;
    let mut outputs = Vec::with_capacity(params.num_exec);
    for e in 0..params.num_exec {
        outputs.push(execute_once(
            &wf,
            &query_input(e as u32),
            &mut state,
            tracker,
            &udfs,
            e as u32,
        )?);
    }
    Ok((wf, state, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_core::graph::validate::check_structure;
    use lipstick_core::graph::{GraphTracker, NoTracker};
    use lipstick_core::NodeKind;

    #[test]
    fn dataset_shape_matches_nsidc_substitute() {
        let obs = observations(3, 42);
        assert_eq!(obs.len(), 480);
        // deterministic
        assert_eq!(obs, observations(3, 42));
        assert_ne!(obs, observations(4, 42));
        // winters are colder than summers on average
        let avg = |m: i64| {
            let (sum, n) = obs
                .iter()
                .filter(|t| t.get(1).unwrap().as_i64().unwrap() == m)
                .map(|t| t.get(3).unwrap().as_f64().unwrap())
                .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
            sum / n as f64
        };
        assert!(avg(1) < avg(7) - 15.0, "Jan {} vs Jul {}", avg(1), avg(7));
    }

    #[test]
    fn topologies_wire_correctly() {
        assert_eq!(upstream_map(4, Topology::Serial)[3], vec![2]);
        assert!(upstream_map(4, Topology::Parallel)
            .iter()
            .all(Vec::is_empty));
        let dense = upstream_map(9, Topology::Dense { fanout: 3 });
        assert!(dense[0].is_empty());
        assert_eq!(dense[4], vec![0, 1, 2]);
        assert_eq!(dense[8], vec![3, 4, 5]);
        assert_eq!(
            sink_stations(9, Topology::Dense { fanout: 3 }),
            vec![6, 7, 8]
        );
        assert_eq!(sink_stations(5, Topology::Serial), vec![4]);
    }

    #[test]
    fn all_topologies_agree_on_the_global_minimum() {
        // With selectivity = all, the output is the global minimum over
        // every station's history — independent of topology.
        let mut results = Vec::new();
        for topology in [
            Topology::Serial,
            Topology::Parallel,
            Topology::Dense { fanout: 2 },
        ] {
            let params = ArcticParams {
                stations: 6,
                topology,
                selectivity: Selectivity::All,
                num_exec: 2,
                seed: 9,
            };
            let mut tracker = NoTracker;
            let (_, _, outs) = run(&params, &mut tracker).unwrap();
            let v = outs[0].relation("Mout", "MinTemp").unwrap().rows[0]
                .tuple
                .get(0)
                .unwrap()
                .clone();
            results.push(v);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn selectivity_controls_tensor_count() {
        // Lower selectivity ⇒ more state tuples feed the MIN ⇒ more ⊗
        // tensors in the provenance graph (the paper's Figure 6(b)
        // mechanism).
        let mut tensor_counts = Vec::new();
        for selectivity in [
            Selectivity::Year,
            Selectivity::Month,
            Selectivity::Season,
            Selectivity::All,
        ] {
            let params = ArcticParams {
                stations: 2,
                topology: Topology::Parallel,
                selectivity,
                num_exec: 1,
                seed: 3,
            };
            let mut tracker = GraphTracker::new();
            run(&params, &mut tracker).unwrap();
            let g = tracker.finish();
            let tensors = g
                .iter_visible()
                .filter(|(_, n)| matches!(n.kind, NodeKind::Tensor))
                .count();
            tensor_counts.push(tensors);
        }
        assert!(
            tensor_counts.windows(2).all(|w| w[0] < w[1]),
            "tensor counts not increasing with selectivity fraction: {tensor_counts:?}"
        );
    }

    #[test]
    fn state_grows_by_one_observation_per_execution() {
        let params = ArcticParams {
            stations: 3,
            topology: Topology::Serial,
            selectivity: Selectivity::Month,
            num_exec: 5,
            seed: 1,
        };
        let mut tracker = NoTracker;
        let (wf, state, _) = run(&params, &mut tracker).unwrap();
        for i in 0..3 {
            let obs = state.relation(&wf, &format!("Msta{i}"), "Obs").unwrap();
            assert_eq!(obs.len(), 480 + 5);
        }
    }

    #[test]
    fn provenance_graph_structurally_valid() {
        let params = ArcticParams {
            stations: 4,
            topology: Topology::Dense { fanout: 2 },
            selectivity: Selectivity::Year,
            num_exec: 2,
            seed: 2,
        };
        let mut tracker = GraphTracker::new();
        let (_, _, outs) = run(&params, &mut tracker).unwrap();
        let g = tracker.finish();
        check_structure(&g).unwrap();
        // (stations + in + out) × executions invocations
        assert_eq!(g.invocations().len(), 6 * 2);
        // With year selectivity, only the fresh (year-2001) measurements
        // match the query, so the minimum's provenance reaches back to
        // the workflow inputs through the Measure black boxes.
        let prov = outs[1].relation("Mout", "MinTemp").unwrap().rows[0]
            .ann
            .prov;
        let expr = g.expr_of(prov).to_string();
        assert!(expr.contains("QueryIn"), "{expr}");
        assert!(
            g.iter_visible().any(|(_, n)| matches!(
                &n.kind,
                NodeKind::BlackBox { name, .. } if name.starts_with("Measure")
            )),
            "Measure black boxes recorded"
        );
    }

    #[test]
    fn with_and_without_provenance_agree() {
        let params = ArcticParams {
            stations: 4,
            topology: Topology::Serial,
            selectivity: Selectivity::Season,
            num_exec: 3,
            seed: 5,
        };
        let mut t1 = NoTracker;
        let (_, _, o1) = run(&params, &mut t1).unwrap();
        let mut t2 = GraphTracker::new();
        let (_, _, o2) = run(&params, &mut t2).unwrap();
        for (a, b) in o1.iter().zip(&o2) {
            assert_eq!(
                a.relation("Mout", "MinTemp").unwrap().tuples(),
                b.relation("Mout", "MinTemp").unwrap().tuples()
            );
        }
    }

    #[test]
    fn season_function_covers_all_months() {
        for m in 1..=12 {
            assert!(!season_of(m).is_empty());
        }
        assert_eq!(season_of(12), "winter");
        assert_eq!(season_of(6), "summer");
    }
}
