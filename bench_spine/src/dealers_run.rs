//! The dealers run, one execution at a time. `dealers::run_declining`
//! times a whole run; the benchmark needs each execution's latency and
//! lockstep tracked/untracked pairs, so this replays the same calls
//! (`build`, `seed_state`, `Buyer::draw`, `execution_input`,
//! `execute_once`) with a clock between them.

use std::time::Instant;

use lipstick_core::graph::{GraphTracker, NoTracker, Tracker};
use lipstick_core::ProvGraph;
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_workflow::exec::render_outputs;
use lipstick_workflow::parallel::execute_once_parallel;
use lipstick_workflow::{execute_once, Workflow, WorkflowState};
use lipstick_workflowgen::dealers::{self, Buyer};
use lipstick_workflowgen::DealersParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct Stepper<T: Tracker> {
    wf: Workflow,
    udfs: UdfRegistry,
    state: WorkflowState<T::Ref>,
    buyer: Buyer,
    next: u32,
}

impl<T: Tracker> Stepper<T> {
    /// Compile the workflow and seed the dealers' inventories.
    pub fn new(params: &DealersParams, tracker: &mut T) -> Stepper<T> {
        let mut udfs = UdfRegistry::new();
        let wf = dealers::build(&mut udfs);
        let mut state = WorkflowState::empty(&wf);
        dealers::seed_state(&wf, &mut state, tracker, params).expect("seed dealers state");
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
        let mut buyer = Buyer::draw(&mut rng);
        buyer.reserve = 0.0; // the declining buyer: every execution happens
        Stepper {
            wf,
            udfs,
            state,
            buyer,
            next: 0,
        }
    }

    /// Run the next execution; returns the seconds it took and, when
    /// asked, its rendered outputs.
    pub fn step(&mut self, tracker: &mut T, render: bool) -> (f64, Option<String>) {
        let input = dealers::execution_input(&self.buyer, self.next, 0.99);
        let start = Instant::now();
        let out = execute_once(
            &self.wf,
            &input,
            &mut self.state,
            tracker,
            &self.udfs,
            self.next,
        )
        .expect("dealers execution");
        let secs = start.elapsed().as_secs_f64();
        self.next += 1;
        (secs, render.then(|| render_outputs(&out)))
    }
}

/// One whole run: per-execution seconds, the last execution's rendered
/// outputs, and the provenance graph when tracking was on.
pub struct Run {
    pub exec_secs: Vec<f64>,
    pub last_outputs: String,
    pub graph: Option<ProvGraph>,
}

pub fn run_tracked(params: &DealersParams) -> Run {
    let mut tracker = GraphTracker::new();
    let (exec_secs, last_outputs) = run_with(params, &mut tracker);
    Run {
        exec_secs,
        last_outputs,
        graph: Some(tracker.finish()),
    }
}

pub fn run_untracked(params: &DealersParams) -> Run {
    let (exec_secs, last_outputs) = run_with(params, &mut NoTracker);
    Run {
        exec_secs,
        last_outputs,
        graph: None,
    }
}

fn run_with<T: Tracker>(params: &DealersParams, tracker: &mut T) -> (Vec<f64>, String) {
    let mut stepper = Stepper::new(params, tracker);
    let n = params.num_exec;
    let mut secs = Vec::with_capacity(n);
    let mut last = String::new();
    for i in 0..n {
        let (s, outputs) = stepper.step(tracker, i + 1 == n);
        secs.push(s);
        last = outputs.unwrap_or(last);
    }
    (secs, last)
}

/// The tracked run on the module-parallel executor (Fig 5(c));
/// returns the seconds spent executing.
pub fn run_parallel(params: &DealersParams, reducers: usize) -> f64 {
    let mut tracker = GraphTracker::new();
    let mut udfs = UdfRegistry::new();
    let wf = dealers::build(&mut udfs);
    let mut state = WorkflowState::empty(&wf);
    dealers::seed_state(&wf, &mut state, &mut tracker, params).expect("seed dealers state");
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let mut buyer = Buyer::draw(&mut rng);
    buyer.reserve = 0.0;
    let start = Instant::now();
    for e in 0..params.num_exec as u32 {
        let input = dealers::execution_input(&buyer, e, 0.99);
        execute_once_parallel(&wf, &input, &mut state, &mut tracker, &udfs, e, reducers)
            .expect("parallel execution");
    }
    start.elapsed().as_secs_f64()
}
