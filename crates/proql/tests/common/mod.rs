//! What the ProQL property suites share: the case budget and the
//! random WorkflowGen graphs they draw from the seeded generator.

use lipstick_core::{GraphTracker, ProvGraph};
use lipstick_workflowgen::arctic::{self, ArcticParams, Selectivity, Topology};
use lipstick_workflowgen::dealers::{self, DealersParams};
use rand::rngs::StdRng;

/// `PROPTEST_CASES` (default 256), so CI pins a deterministic, bounded
/// run.
pub fn case_budget() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// A random small WorkflowGen graph: alternate the two workload
/// families, varying their shape parameters.
pub fn random_graph(rng: &mut StdRng) -> ProvGraph {
    random_tracker(rng).finish()
}

/// The tracker behind [`random_graph`], for suites that keep tracking.
pub fn random_tracker(rng: &mut StdRng) -> GraphTracker {
    let mut tracker = GraphTracker::new();
    if rng.chance(50) {
        let params = DealersParams {
            num_cars: 6 + rng.below(20),
            num_exec: 1 + rng.below(3),
            seed: rng.next_u64(),
        };
        dealers::run_declining(&params, &mut tracker).expect("dealers run");
    } else {
        let params = ArcticParams {
            stations: 2 + rng.below(4),
            topology: match rng.below(3) {
                0 => Topology::Serial,
                1 => Topology::Parallel,
                _ => Topology::Dense { fanout: 2 },
            },
            selectivity: [
                Selectivity::All,
                Selectivity::Season,
                Selectivity::Month,
                Selectivity::Year,
            ][rng.below(4)],
            num_exec: 1 + rng.below(2),
            seed: rng.next_u64(),
        };
        arctic::run(&params, &mut tracker).expect("arctic run");
    }
    tracker
}
