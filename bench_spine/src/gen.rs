//! Seed-derived inputs: the dealers provenance graphs, the statement
//! lists the read workloads replay, the deletion victims and ingest
//! fragments of the write workload. Nothing here reads a clock or the
//! environment — the same seed gives the same inputs.

use lipstick_core::graph::GraphTracker;
use lipstick_core::obs::fnv1a64;
use lipstick_core::{NodeId, ProvGraph};
use lipstick_workflowgen::{dealers, DealersParams};

use crate::rng::Rng;

/// `num_exec` of graph **S** (≈ 24k nodes; the bidirectional reach
/// closure fits in memory).
pub const S_EXEC: usize = 40;
/// `num_exec` of graph **L** (≈ 183k nodes; the closure would need
/// gigabytes, so L is never indexed).
pub const L_EXEC: usize = 200;

pub fn dealers_params(num_exec: usize, num_cars: usize, seed: u64) -> DealersParams {
    DealersParams {
        num_cars,
        num_exec,
        seed: Rng::new(seed).fork(num_exec as u64).next_u64(),
    }
}

/// Run the dealers workflow with provenance tracking on.
pub fn tracked_graph(params: &DealersParams) -> ProvGraph {
    let mut tracker = GraphTracker::new();
    dealers::run_declining(params, &mut tracker).expect("dealers run");
    tracker.finish()
}

/// The ≈ 100-node fragments the write workload ingests: single
/// executions over a small inventory, each from its own seed.
pub fn fragments(seed: u64, count: usize) -> Vec<ProvGraph> {
    (0..count)
        .map(|i| tracked_graph(&dealers_params(1, 8, seed ^ (0xF7A6 + i as u64))))
        .collect()
}

/// Cone sizes of one sampled node, each capped at [`CONE_CAP`].
#[derive(Debug, Clone, Copy)]
pub struct Cone {
    pub id: u32,
    pub ancestors: u32,
    pub descendants: u32,
}

/// Cones are counted up to this many nodes; beyond it a cone is just
/// "large".
pub const CONE_CAP: u32 = 4096;

/// Breadth-first cone walker with a reusable visited stamp array.
pub struct Walker<'g> {
    graph: &'g ProvGraph,
    stamp: Vec<u32>,
    round: u32,
    queue: Vec<u32>,
}

impl<'g> Walker<'g> {
    pub fn new(graph: &'g ProvGraph) -> Walker<'g> {
        Walker {
            graph,
            stamp: vec![0; graph.len()],
            round: 0,
            queue: Vec::new(),
        }
    }

    /// Visible nodes reachable from `root` (excluding it) along
    /// ingredient edges (`up`) or dependent edges, at most `cap` of
    /// them; the reached ids are left in the returned slice.
    pub fn cone(&mut self, root: u32, up: bool, cap: u32) -> &[u32] {
        self.round += 1;
        self.queue.clear();
        self.stamp[root as usize] = self.round;
        let mut frontier = vec![root];
        while let Some(id) = frontier.pop() {
            let node = self.graph.node(NodeId(id));
            let next = if up { node.preds() } else { node.succs() };
            for &NodeId(n) in next {
                if self.stamp[n as usize] == self.round || !self.graph.node(NodeId(n)).is_visible()
                {
                    continue;
                }
                self.stamp[n as usize] = self.round;
                self.queue.push(n);
                if self.queue.len() as u32 >= cap {
                    return &self.queue;
                }
                frontier.push(n);
            }
        }
        &self.queue
    }
}

/// Cone sizes of `samples` distinct visible nodes drawn uniformly.
pub fn sample_cones(graph: &ProvGraph, rng: &mut Rng, samples: usize) -> Vec<Cone> {
    let mut ids: Vec<u32> = graph.iter_visible().map(|(id, _)| id.0).collect();
    rng.shuffle(&mut ids);
    ids.truncate(samples);
    let mut walker = Walker::new(graph);
    ids.into_iter()
        .map(|id| Cone {
            id,
            ancestors: walker.cone(id, true, CONE_CAP).len() as u32,
            descendants: walker.cone(id, false, CONE_CAP).len() as u32,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Walk,
    WalkBounded,
    Match,
    Agg,
    Setop,
    Why,
    Depends,
    Eval,
    Subgraph,
}

impl Family {
    pub const ALL: [Family; 9] = [
        Family::Walk,
        Family::WalkBounded,
        Family::Match,
        Family::Agg,
        Family::Setop,
        Family::Why,
        Family::Depends,
        Family::Eval,
        Family::Subgraph,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Walk => "walk",
            Family::WalkBounded => "walk_bounded",
            Family::Match => "match",
            Family::Agg => "agg",
            Family::Setop => "setop",
            Family::Why => "why",
            Family::Depends => "depends",
            Family::Eval => "eval",
            Family::Subgraph => "subgraph",
        }
    }
}

/// Which families a list draws from, and from which cones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// All nine families equally; roots from small and large cones.
    Uniform,
    /// Walk / why / depends / setop on the largest cones sampled — the
    /// statements a reach index answers from its closure.
    ReachHeavy,
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub text: String,
    pub family: Family,
    /// Node ids the statement names; a statement is only valid while
    /// all of them are visible.
    pub roots: Vec<u32>,
}

/// `WHY`/`EVAL` expand the provenance DAG into a tree, which grows
/// exponentially with cone depth; roots above this ancestor count are
/// left to the walk families.
const EXPR_CONE_MAX: u32 = 24;
/// A cone counts as large from here up,
const LARGE_CONE: u32 = 256;
/// and as trivial up to here.
const TRIVIAL_CONE: u32 = 2;

/// Quantile bins a pool of large cones is split into; roots are drawn
/// from the bins in turn, so every list holds the same blend of cone
/// sizes whatever the seed.
const CONE_BINS: usize = 6;
/// Strata a numeric parameter's range is split into, likewise.
const PARAM_STRATA: usize = 8;

struct Pools {
    /// Every sampled node.
    any: Vec<u32>,
    /// Nodes with next to no cone in the given direction (most nodes
    /// are leaves of the state relations).
    trivial_up: Vec<u32>,
    trivial_down: Vec<u32>,
    /// Nodes with a middling ancestor / descendant cone, smallest first.
    medium_up: Vec<u32>,
    medium_down: Vec<u32>,
    /// Nodes with a large ancestor / descendant cone, smallest first.
    large_up: Vec<u32>,
    large_down: Vec<u32>,
    /// Nodes whose ancestor cone is non-trivial but safe to expand.
    expr: Vec<u32>,
    modules: Vec<String>,
    executions: u32,
}

impl Pools {
    fn new(graph: &ProvGraph, cones: &[Cone]) -> Pools {
        let pick = |f: &dyn Fn(&Cone) -> bool, size: &dyn Fn(&Cone) -> u32| -> Vec<u32> {
            let mut picked: Vec<&Cone> = cones.iter().filter(|c| f(c)).collect();
            picked.sort_by_key(|c| (size(c), c.id));
            picked.into_iter().map(|c| c.id).collect()
        };
        let mut modules: Vec<String> = graph
            .invocations()
            .iter()
            .map(|inv| inv.module.to_string())
            .collect();
        modules.sort();
        modules.dedup();
        let pools = Pools {
            any: pick(&|_| true, &|c| c.id),
            trivial_up: pick(&|c| c.ancestors <= TRIVIAL_CONE, &|c| c.id),
            trivial_down: pick(&|c| c.descendants <= TRIVIAL_CONE, &|c| c.id),
            medium_up: pick(
                &|c| (TRIVIAL_CONE + 1..LARGE_CONE).contains(&c.ancestors),
                &|c| c.ancestors,
            ),
            medium_down: pick(
                &|c| (TRIVIAL_CONE + 1..LARGE_CONE).contains(&c.descendants),
                &|c| c.descendants,
            ),
            large_up: pick(&|c| c.ancestors >= LARGE_CONE, &|c| c.ancestors),
            large_down: pick(&|c| c.descendants >= LARGE_CONE, &|c| c.descendants),
            expr: pick(&|c| (2..=EXPR_CONE_MAX).contains(&c.ancestors), &|c| {
                c.ancestors
            }),
            executions: graph
                .invocations()
                .iter()
                .map(|inv| inv.execution + 1)
                .max()
                .unwrap_or(1),
            modules,
        };
        assert!(
            [
                &pools.trivial_up,
                &pools.trivial_down,
                &pools.medium_up,
                &pools.medium_down,
                &pools.large_up,
                &pools.large_down,
                &pools.expr,
            ]
            .iter()
            .all(|pool| pool.len() >= CONE_BINS),
            "cone sample too small to draw roots from"
        );
        pools
    }

    /// A root for a walk in the given direction. Under `ReachHeavy`
    /// every root has a large cone; otherwise the cone classes take
    /// turns — large, trivial, large, medium — so every list holds the
    /// same number of cheap and dear walks. `slot` counts the family's
    /// draws.
    fn walk_root(&self, rng: &mut Rng, up: bool, mix: Mix, slot: usize) -> u32 {
        let (trivial, medium, large) = if up {
            (&self.trivial_up, &self.medium_up, &self.large_up)
        } else {
            (&self.trivial_down, &self.medium_down, &self.large_down)
        };
        if mix == Mix::ReachHeavy {
            return stratified(rng, large, slot);
        }
        match slot % 4 {
            1 => *rng.pick(trivial),
            3 => stratified(rng, medium, slot / 4),
            _ => stratified(rng, large, slot / 2),
        }
    }

    /// An execution number from the `slot`th stratum of the range.
    fn execution(&self, rng: &mut Rng, slot: usize) -> u32 {
        let stratum = (slot % PARAM_STRATA) as f64;
        let at = (stratum + rng.unit()) / PARAM_STRATA as f64;
        ((at * self.executions as f64) as u32).min(self.executions - 1)
    }
}

/// A random member of the `slot`th quantile bin of a sorted pool.
fn stratified(rng: &mut Rng, sorted: &[u32], slot: usize) -> u32 {
    let bin = slot % CONE_BINS;
    let (from, to) = (
        bin * sorted.len() / CONE_BINS,
        (bin + 1) * sorted.len() / CONE_BINS,
    );
    sorted[from + rng.below(to - from)]
}

const KINDS: [&str; 6] = ["state", "plus", "times", "delta", "module_output", "tensor"];
const SEMIRINGS: [&str; 5] = ["counting", "boolean", "tropical", "lineage", "why"];
const CLASSES: [&str; 6] = [
    "m-nodes",
    "i-nodes",
    "o-nodes",
    "s-nodes",
    "base-nodes",
    "v-nodes",
];

fn direction(up: bool) -> &'static str {
    if up {
        "ANCESTORS"
    } else {
        "DESCENDANTS"
    }
}

/// The `slot`th statement of a family. Templates, directions, cone
/// bins and parameter strata all rotate with `slot`, so two lists of
/// the same length cost about the same whatever the seed; the seed
/// picks the members within each bin and stratum.
fn one(
    p: &Pools,
    walker: &mut Walker,
    rng: &mut Rng,
    family: Family,
    mix: Mix,
    slot: usize,
) -> Stmt {
    let up = slot.is_multiple_of(2);
    // Rotates slower than `up`, so every template meets both directions.
    let turn = slot / 2;
    let (text, roots) = match family {
        Family::Walk => {
            let r = p.walk_root(rng, up, mix, turn);
            let filter = match turn % 4 {
                0 => format!(" WHERE kind = '{}'", KINDS[(turn / 4) % KINDS.len()]),
                _ => String::new(),
            };
            (format!("{} OF #{r}{filter}", direction(up)), vec![r])
        }
        Family::WalkBounded => {
            let r = p.walk_root(rng, up, mix, turn);
            let depth = 1 + turn % 4;
            (format!("{} OF #{r} DEPTH {depth}", direction(up)), vec![r])
        }
        Family::Match => {
            let e = p.execution(rng, slot / 5);
            let text = match slot % 5 {
                0 => format!("MATCH m-nodes WHERE module = '{}'", rng.pick(&p.modules)),
                1 => format!(
                    "MATCH base-nodes WHERE token LIKE 'C{}.{}%'",
                    1 + rng.below(4),
                    rng.below(5)
                ),
                2 => format!(
                    "MATCH nodes WHERE execution = {e} LIMIT {}",
                    10 + rng.below(30)
                ),
                3 => format!(
                    "MATCH o-nodes WHERE module = '{}' AND execution <= {e}",
                    rng.pick(&p.modules)
                ),
                _ => format!(
                    "MATCH {} WHERE execution = {e}",
                    CLASSES[(slot / 5) % CLASSES.len()]
                ),
            };
            (text, vec![])
        }
        Family::Agg => {
            let e = p.execution(rng, slot / 5);
            let class = CLASSES[(slot / 5) % CLASSES.len()];
            match slot % 5 {
                0 => (
                    format!("COUNT(*) MATCH {class} WHERE execution >= {e}"),
                    vec![],
                ),
                1 => (
                    format!("MATCH {class} WHERE execution < {e} GROUP BY module"),
                    vec![],
                ),
                2 => (
                    format!("MATCH nodes WHERE execution = {e} GROUP BY kind ORDER BY count DESC"),
                    vec![],
                ),
                3 => (
                    format!("COUNT(DISTINCT module) MATCH m-nodes WHERE execution <= {e}"),
                    vec![],
                ),
                _ => {
                    let r = p.walk_root(rng, turn.is_multiple_of(2), mix, slot / 5);
                    (
                        format!("COUNT(*) {} OF #{r}", direction(turn.is_multiple_of(2))),
                        vec![r],
                    )
                }
            }
        }
        Family::Setop => {
            let a = p.walk_root(rng, up, mix, turn);
            let b = p.walk_root(rng, up, mix, turn + 1);
            match turn % 3 {
                0 => (
                    format!("MATCH base-nodes INTERSECT ANCESTORS OF #{a}"),
                    vec![a],
                ),
                1 => (
                    format!("{d} OF #{a} UNION {d} OF #{b}", d = direction(up)),
                    vec![a, b],
                ),
                _ => (
                    format!("{d} OF #{a} INTERSECT {d} OF #{b}", d = direction(up)),
                    vec![a, b],
                ),
            }
        }
        Family::Why => {
            let r = stratified(rng, &p.expr, slot);
            (format!("WHY #{r}"), vec![r])
        }
        Family::Depends => {
            let a = p.walk_root(rng, true, mix, turn);
            // Half the tests name a true ancestor, half an arbitrary node.
            let cone = walker.cone(a, true, CONE_CAP);
            let b = if !cone.is_empty() && up {
                *rng.pick(cone)
            } else {
                *rng.pick(&p.any)
            };
            (format!("DEPENDS(#{a}, #{b})"), vec![a, b])
        }
        Family::Eval => {
            let r = stratified(rng, &p.expr, slot);
            let semiring = SEMIRINGS[(slot / CONE_BINS) % SEMIRINGS.len()];
            (format!("EVAL #{r} IN {semiring}"), vec![r])
        }
        Family::Subgraph => {
            let r = p.walk_root(rng, up, mix, turn);
            (format!("SUBGRAPH OF #{r}"), vec![r])
        }
    };
    Stmt {
        text,
        family,
        roots,
    }
}

/// `n` distinct statements over `graph`. `keep` rejects statements the
/// caller cannot use (e.g. roots a later zoom would hide).
pub fn statements(
    graph: &ProvGraph,
    cones: &[Cone],
    rng: &mut Rng,
    n: usize,
    mix: Mix,
    keep: &dyn Fn(&Stmt) -> bool,
) -> Vec<Stmt> {
    let pools = Pools::new(graph, cones);
    let mut walker = Walker::new(graph);
    let families: &[Family] = match mix {
        Mix::Uniform => &Family::ALL,
        Mix::ReachHeavy => &[
            Family::Walk,
            Family::Walk,
            Family::Setop,
            Family::Depends,
            Family::Why,
            Family::Agg,
        ],
    };
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut slots = vec![0usize; families.len()];
    let (mut draws, mut rejected) = (0usize, 0usize);
    while out.len() < n {
        draws += 1;
        assert!(
            draws < n * 200,
            "statement generator cannot reach {n} distinct statements"
        );
        // Families take turns; a rejected draw retries the same slot,
        // so the list's make-up does not depend on how many collided —
        // unless the slot's template has run out of distinct
        // statements (few modules, few tokens), when it is skipped.
        let turn = out.len() % families.len();
        let stmt = one(&pools, &mut walker, rng, families[turn], mix, slots[turn]);
        if keep(&stmt) && seen.insert(stmt.text.clone()) {
            slots[turn] += 1;
            rejected = 0;
            out.push(stmt);
        } else {
            rejected += 1;
            if rejected % 16 == 0 {
                slots[turn] += 1;
            }
        }
    }
    out
}

/// One number that changes when any statement of the list does.
pub fn list_fingerprint(list: &[Stmt]) -> u64 {
    let mut joined = String::new();
    for s in list {
        joined.push_str(&s.text);
        joined.push('\n');
    }
    fnv1a64(joined.as_bytes())
}

/// `count` distinct deletion victims: visible nodes whose descendant
/// cone holds at most two nodes, none of them (nor the victim) named
/// by a statement in `protect`, so every delete succeeds, stays small,
/// and never invalidates a reader's statement.
pub fn victims(graph: &ProvGraph, rng: &mut Rng, count: usize, protect: &[Stmt]) -> Vec<u32> {
    let protected: std::collections::HashSet<u32> = protect
        .iter()
        .flat_map(|s| s.roots.iter().copied())
        .collect();
    let mut ids: Vec<u32> = graph.iter_visible().map(|(id, _)| id.0).collect();
    rng.shuffle(&mut ids);
    let mut walker = Walker::new(graph);
    let mut taken = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    for id in ids {
        if out.len() == count {
            break;
        }
        let cone = walker.cone(id, false, 3);
        if cone.len() > 2
            || protected.contains(&id)
            || taken.contains(&id)
            || cone
                .iter()
                .any(|n| protected.contains(n) || taken.contains(n))
        {
            continue;
        }
        taken.insert(id);
        taken.extend(cone.iter().copied());
        out.push(id);
    }
    assert_eq!(out.len(), count, "graph too small for {count} victims");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_list(seed: u64) -> Vec<Stmt> {
        let graph = tracked_graph(&dealers_params(12, 200, seed));
        let rng = Rng::new(seed);
        let cones = sample_cones(&graph, &mut rng.fork(1), 1500);
        statements(&graph, &cones, &mut rng.fork(2), 120, Mix::Uniform, &|_| {
            true
        })
    }

    #[test]
    fn same_seed_same_list_different_seed_different_list() {
        let a = small_list(11);
        assert_eq!(list_fingerprint(&a), list_fingerprint(&small_list(11)));
        assert_ne!(list_fingerprint(&a), list_fingerprint(&small_list(12)));
        for family in Family::ALL {
            assert!(
                a.iter().any(|s| s.family == family),
                "{} missing",
                family.name()
            );
        }
        let mut texts: Vec<&str> = a.iter().map(|s| s.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), a.len(), "statements are distinct");
    }

    #[test]
    fn every_generated_statement_runs() {
        let graph = tracked_graph(&dealers_params(12, 200, 5));
        let rng = Rng::new(5);
        let cones = sample_cones(&graph, &mut rng.fork(1), 1500);
        let mut list = statements(&graph, &cones, &mut rng.fork(2), 90, Mix::Uniform, &|_| {
            true
        });
        list.extend(statements(
            &graph,
            &cones,
            &mut rng.fork(3),
            60,
            Mix::ReachHeavy,
            &|_| true,
        ));
        let session = lipstick_proql::Session::new(graph);
        for stmt in &list {
            let out = session.run_read(&stmt.text);
            assert!(out.is_ok(), "{} failed: {:?}", stmt.text, out.err());
        }
    }

    #[test]
    fn victims_are_distinct_small_and_avoid_roots() {
        let graph = tracked_graph(&dealers_params(12, 200, 9));
        let rng = Rng::new(9);
        let cones = sample_cones(&graph, &mut rng.fork(1), 1500);
        let list = statements(&graph, &cones, &mut rng.fork(2), 60, Mix::Uniform, &|_| {
            true
        });
        let picked = victims(&graph, &mut rng.fork(3), 200, &list);
        let distinct: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(distinct.len(), 200);
        let mut session = lipstick_proql::Session::new(graph);
        for v in &picked {
            session
                .run_one(&format!("DELETE #{v} PROPAGATE"))
                .expect("victim deletes");
        }
        for stmt in &list {
            assert!(session.run_read(&stmt.text).is_ok(), "{} broke", stmt.text);
        }
    }
}
