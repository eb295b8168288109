//! ZoomOut and ZoomIn (paper §4.1).
//!
//! ZoomOut on a set of module names hides every invocation's intermediate
//! computation and state, replacing each invocation by a composite node
//! between its inputs and outputs. ZoomIn inverts it exactly:
//! `ZoomIn(ZoomOut(G, M), M) = G`.
//!
//! Because invocations of the same module may share state, zooming out a
//! *proper subset* of a module's invocations is not meaningful (§4.1);
//! the unit of zooming is the module name, covering all its invocations.
//!
//! **What the planner looks at.** Every decision [`plan_zoom_out`] makes
//! for a module is about one of two sets of nodes: the visible nodes
//! whose [`Role`] names one of the module's invocations (steps 3–5 hide
//! its `Intermediate` / `State` nodes and wire its `ModuleInput` /
//! `ModuleOutput` nodes), and the visible base tuples (step 4). Those
//! are, by definition, [`GraphStore::module_postings`] of the module
//! and [`GraphStore::kind_postings`] of `"base_tuple"`: ascending, and
//! exact — no node outside them can match, none inside is invisible.
//! Every store keeps them, so the planner walks only those lists — a
//! few thousand ids instead of every node, and no `kind_of` read at all
//! — in the same order on every store. The plan is therefore the same
//! everywhere, which is what lets a tail `ZoomOut` record be replayed
//! by planning again.

use crate::graph::node::{NodeId, NodeKind, Role};
use crate::graph::{InvocationId, ProvGraph, ZoomStash};
use crate::store::GraphStore;

use super::error::QueryError;

/// One composite zoom node to create: the invocation it stands for and
/// the input/output nodes it is wired between (ascending id order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositePlan {
    pub invocation: InvocationId,
    pub inputs: Vec<NodeId>,
    pub outputs: Vec<NodeId>,
}

/// Everything a ZoomOut of one module does, computed against an
/// immutable store: which nodes it hides and which composites it adds.
/// An applier replays this against its own representation — the
/// resident graph mutates nodes in place, the append-log backend turns
/// it into tail records plus an overlay — and both land on the same
/// visible graph because the decisions were all made here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoomModulePlan {
    pub module: String,
    /// Nodes this module's zoom hides, in the order the resident
    /// mutation would hide them (step 3-4 discovery order).
    pub hidden: Vec<NodeId>,
    /// One composite per invocation, in invocation order. Composite ids
    /// are assigned at apply time: `node_count + k` over the whole
    /// multi-module plan, in plan order.
    pub composites: Vec<CompositePlan>,
}

impl ZoomModulePlan {
    /// Total composites across a multi-module plan slice.
    pub fn total_composites(plans: &[ZoomModulePlan]) -> usize {
        plans.iter().map(|p| p.composites.len()).sum()
    }
}

/// Plan a multi-module ZoomOut against any [`GraphStore`], without
/// mutating anything. `zoomed_out` names the modules currently zoomed
/// out and `stash_count` the number of stashes ever allocated — the
/// caller's zoom bookkeeping, which a bare store does not carry.
///
/// The plan simulates the resident mutation exactly: hiding decisions
/// for module *k* see the hides of modules *1..k* (and the composites
/// they created), so applying the returned plan is bit-identical to
/// running the historical in-place loop.
///
/// Steps mirror the paper's five-step procedure:
/// 1. find the invocations of the modules;
/// 2. locate their input and state nodes;
/// 3. hide their intermediate computation (our `Role` tags; validated
///    against the Definition 4.1 characterization by tests);
/// 4. hide their state nodes and the base tuple nodes feeding only them;
/// 5. add a composite node per invocation wired input → zoom → output.
pub fn plan_zoom_out<S: GraphStore + ?Sized>(
    store: &S,
    modules: &[&str],
    zoomed_out: &[String],
    stash_count: usize,
) -> Result<Vec<ZoomModulePlan>, QueryError> {
    // Validate first so the operation is atomic. A duplicate within
    // the list is the in-call spelling of zooming an already-zoomed
    // module (validation runs against the pre-zoom state, so without
    // this check a repeated name would zoom twice and corrupt the
    // graph with duplicate composites).
    let mut seen = std::collections::HashSet::new();
    for m in modules {
        if store.invocations_of(m).is_empty() {
            return Err(QueryError::UnknownModule((*m).to_string()));
        }
        if !seen.insert(*m) || zoomed_out.iter().any(|z| z == m) {
            return Err(QueryError::AlreadyZoomedOut((*m).to_string()));
        }
    }
    // One stash per module; RETIRED_STASH is reserved for retired
    // composites (and the storage codec's sentinel tag), so it must
    // never be allocated as a live index. Checked up front to keep the
    // operation atomic.
    if stash_count + modules.len() > crate::graph::node::RETIRED_STASH as usize {
        return Err(QueryError::StashOverflow);
    }

    let n = store.node_count();
    // Simulated mutation state: hides from earlier modules in this
    // call, and composite edges they would have added. Composites are
    // always visible, so only the extra successors matter (a base
    // tuple whose successor set gained a composite stays visible).
    let mut sim_hidden = vec![false; n];
    let mut sim_extra_succs: std::collections::HashMap<NodeId, usize> =
        std::collections::HashMap::new();
    let visible = |sim_hidden: &[bool], store: &S, id: NodeId| -> bool {
        !sim_hidden[id.index()] && store.is_visible(id)
    };
    // The store does not change while planning, so one list serves
    // every module's base-tuple sweep.
    let base_tuples = store.kind_postings("base_tuple");

    let mut plans = Vec::with_capacity(modules.len());
    for module in modules {
        let invocations = store.invocations_of(module);
        // Invocation id → position in `invocations` (`None` for another
        // module's): membership is tested once per node swept, and a
        // module can have hundreds of invocations.
        let mut slot: Vec<Option<usize>> = vec![None; store.invocations().len()];
        for (k, inv) in invocations.iter().enumerate() {
            slot[inv.index()] = Some(k);
        }
        let ours = |inv: InvocationId| slot.get(inv.index()).copied().flatten();
        let owned = store.module_postings(module);
        let mut hidden: Vec<NodeId> = Vec::new();

        // Steps 3-4: hide intermediates and state nodes of all
        // invocations of this module.
        for &id in owned.iter() {
            if !visible(&sim_hidden, store, id) {
                continue;
            }
            let hide = match store.role_of(id) {
                Role::Intermediate(inv) | Role::State(inv) => ours(inv).is_some(),
                _ => false,
            };
            if hide {
                sim_hidden[id.index()] = true;
                hidden.push(id);
            }
        }
        // Step 4 (second half): base tuple nodes that fed only
        // now-hidden nodes (a module's private initial-state tuples).
        for &id in base_tuples.iter() {
            if !visible(&sim_hidden, store, id) {
                continue;
            }
            let succs = store.succs_of(id);
            // Composite successors added by earlier modules in this
            // call are always visible, so their presence alone keeps
            // the tuple visible.
            let all_succs_hidden = sim_extra_succs.get(&id).copied().unwrap_or(0) == 0
                && !succs.is_empty()
                && succs.iter().all(|s| !visible(&sim_hidden, store, *s));
            if all_succs_hidden {
                sim_hidden[id.index()] = true;
                hidden.push(id);
            }
        }

        // Step 5: composite nodes. Collect every invocation's input and
        // output nodes in ONE pass (a per-invocation scan would make
        // ZoomOut quadratic on long execution histories).
        let mut io: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![Default::default(); invocations.len()];
        for &id in owned.iter() {
            if !visible(&sim_hidden, store, id) {
                continue;
            }
            match store.role_of(id) {
                Role::ModuleInput(inv) => {
                    if let Some(k) = ours(inv) {
                        io[k].0.push(id);
                    }
                }
                Role::ModuleOutput(inv) => {
                    if let Some(k) = ours(inv) {
                        io[k].1.push(id);
                    }
                }
                _ => {}
            }
        }
        let mut composites = Vec::with_capacity(invocations.len());
        for (&inv, (inputs, outputs)) in invocations.iter().zip(io) {
            for i in &inputs {
                *sim_extra_succs.entry(*i).or_insert(0) += 1;
            }
            composites.push(CompositePlan {
                invocation: inv,
                inputs,
                outputs,
            });
        }
        plans.push(ZoomModulePlan {
            module: (*module).to_string(),
            hidden,
            composites,
        });
    }
    Ok(plans)
}

/// Apply a previously computed zoom plan to the resident graph.
/// Returns the composite zoom nodes created (one per invocation, in
/// invocation order).
pub fn apply_zoom_out(graph: &mut ProvGraph, plans: Vec<ZoomModulePlan>) -> Vec<NodeId> {
    let mut created = Vec::new();
    for plan in plans {
        for &id in &plan.hidden {
            graph.set_zoom_hidden(id, true);
        }
        // Stash index is assigned below; nodes reference it by value.
        let stash_idx = graph.stash_count() as u32;
        let mut zoom_nodes = Vec::with_capacity(plan.composites.len());
        for comp in &plan.composites {
            let zoom = graph.add_node(
                NodeKind::Zoomed { stash: stash_idx },
                Role::Zoom(comp.invocation),
            );
            for &i in &comp.inputs {
                graph.add_edge(i, zoom);
            }
            for &o in &comp.outputs {
                graph.add_edge(zoom, o);
            }
            zoom_nodes.push(zoom);
        }
        created.extend(zoom_nodes.iter().copied());
        graph.push_stash(ZoomStash {
            module: plan.module,
            hidden: plan.hidden,
            zoom_nodes,
        });
    }
    created
}

/// Zoom out of the given modules, in place. Returns the composite zoom
/// nodes created (one per invocation, in invocation order).
///
/// Planning ([`plan_zoom_out`]) is separated from application so that
/// append-log backends can compute the identical plan against their
/// layered view and commit it as tail records; the resident path here
/// is simply plan-then-apply.
pub fn zoom_out(graph: &mut ProvGraph, modules: &[&str]) -> Result<Vec<NodeId>, QueryError> {
    let zoomed: Vec<String> = graph
        .zoomed_out_modules()
        .into_iter()
        .map(str::to_string)
        .collect();
    let plans = plan_zoom_out(graph, modules, &zoomed, graph.stash_count())?;
    Ok(apply_zoom_out(graph, plans))
}

/// Zoom back into the given modules, in place: restores the hidden
/// internals and retires the composite nodes.
pub fn zoom_in(graph: &mut ProvGraph, modules: &[&str]) -> Result<(), QueryError> {
    // A duplicate in the list would pass per-name validation against
    // the unmutated stash table; reject it up front as not-zoomed-out
    // (the second occurrence has nothing left to restore).
    let mut seen = std::collections::HashSet::new();
    for m in modules {
        if !seen.insert(*m) || !graph.zoomed_out_modules().contains(m) {
            return Err(QueryError::NotZoomedOut((*m).to_string()));
        }
    }
    restore_zoomed(graph, modules);
    Ok(())
}

/// ZoomIn's mutation, for modules already validated as zoomed out: a
/// name with no stash has nothing to restore.
pub(crate) fn restore_zoomed(graph: &mut ProvGraph, modules: &[impl AsRef<str>]) {
    for module in modules {
        let Some(stash) = graph.take_stash(module.as_ref()) else {
            continue;
        };
        for id in stash.hidden {
            graph.set_zoom_hidden(id, false);
        }
        for z in stash.zoom_nodes {
            graph.unlink_and_delete(z);
            // Remap the dead stash index to the reserved sentinel so the
            // in-memory representation matches what the storage codec
            // round-trips (a genuine index would collide with the
            // on-disk retired-zoom tag otherwise).
            graph.node_mut(z).kind = NodeKind::Zoomed {
                stash: crate::graph::node::RETIRED_STASH,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tracker::{GraphTracker, Tracker};
    use crate::graph::Role;
    use std::borrow::Cow;

    /// Two invocations of M (sharing a state tuple) feeding one
    /// invocation of Agg.
    fn workflow_graph() -> (ProvGraph, Vec<NodeId>) {
        let mut t = GraphTracker::new();
        let wi = t.workflow_input("I1");
        let c2 = t.base("C2");
        let mut outputs = Vec::new();
        for exec in 0..2 {
            t.begin_invocation("M", exec);
            let i = t.module_input(wi);
            let s = t.state_node(c2);
            let join = t.times(&[i, s]);
            let o = t.module_output(join, &[]);
            t.end_invocation();
            outputs.push(o);
        }
        t.begin_invocation("Agg", 0);
        let i1 = t.module_input(outputs[0]);
        let i2 = t.module_input(outputs[1]);
        let best = t.plus(&[i1, i2]);
        let o = t.module_output(best, &[]);
        t.end_invocation();
        outputs.push(o);
        (t.finish(), outputs)
    }

    #[test]
    fn zoom_roundtrip_is_identity() {
        let (mut g, _) = workflow_graph();
        let before = g.visible_signature();
        zoom_out(&mut g, &["M"]).unwrap();
        assert_ne!(g.visible_signature(), before);
        zoom_in(&mut g, &["M"]).unwrap();
        assert_eq!(g.visible_signature(), before);
    }

    #[test]
    fn zoom_out_hides_internals_keeps_io() {
        let (mut g, _) = workflow_graph();
        zoom_out(&mut g, &["M"]).unwrap();
        for (_, n) in g.iter_visible() {
            assert!(
                !matches!(n.role, Role::Intermediate(inv) | Role::State(inv)
                    if g.invocation(inv).module == "M"),
                "internals of M must be hidden"
            );
        }
        // i/o/m nodes of M remain
        let m_inv = g.invocations_of("M")[0];
        assert!(g
            .iter_visible()
            .any(|(_, n)| n.role == Role::ModuleInput(m_inv)));
        assert!(g
            .iter_visible()
            .any(|(_, n)| n.role == Role::ModuleOutput(m_inv)));
        // shared state base tuple C2 is hidden (fed only M's state)
        assert!(g
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::BaseTuple { .. }))
            .all(|(_, n)| !n.is_visible()));
        // Agg internals untouched
        let agg_inv = g.invocations_of("Agg")[0];
        assert!(g
            .iter_visible()
            .any(|(_, n)| n.role == Role::Intermediate(agg_inv)));
    }

    #[test]
    fn zoom_out_creates_one_composite_per_invocation() {
        let (mut g, _) = workflow_graph();
        let zooms = zoom_out(&mut g, &["M"]).unwrap();
        assert_eq!(zooms.len(), 2);
        for z in zooms {
            let n = g.node(z);
            assert!(matches!(n.kind, NodeKind::Zoomed { .. }));
            assert_eq!(n.preds().len(), 1, "one input per invocation");
            assert_eq!(n.succs().len(), 1, "one output per invocation");
        }
    }

    #[test]
    fn zoom_out_all_modules_gives_coarse_grained_graph() {
        let (mut g, _) = workflow_graph();
        zoom_out(&mut g, &["M", "Agg"]).unwrap();
        // Coarse graph: only workflow inputs, m, i, o, zoom nodes remain.
        for (_, n) in g.iter_visible() {
            assert!(
                matches!(
                    n.kind,
                    NodeKind::WorkflowInput { .. }
                        | NodeKind::Invocation
                        | NodeKind::ModuleInput
                        | NodeKind::ModuleOutput
                        | NodeKind::Zoomed { .. }
                ),
                "unexpected visible kind {:?}",
                n.kind
            );
        }
    }

    #[test]
    fn double_zoom_out_rejected() {
        let (mut g, _) = workflow_graph();
        zoom_out(&mut g, &["M"]).unwrap();
        assert_eq!(
            zoom_out(&mut g, &["M"]),
            Err(QueryError::AlreadyZoomedOut("M".into()))
        );
    }

    #[test]
    fn zoom_in_without_zoom_out_rejected() {
        let (mut g, _) = workflow_graph();
        assert_eq!(
            zoom_in(&mut g, &["M"]),
            Err(QueryError::NotZoomedOut("M".into()))
        );
    }

    #[test]
    fn duplicate_modules_in_one_call_rejected_atomically() {
        let (mut g, _) = workflow_graph();
        let before = g.visible_signature();
        assert_eq!(
            zoom_out(&mut g, &["M", "M"]),
            Err(QueryError::AlreadyZoomedOut("M".into()))
        );
        assert_eq!(g.visible_signature(), before, "failed zoom must not mutate");
        zoom_out(&mut g, &["M"]).unwrap();
        // Duplicate ZoomIn must error (not panic on the second stash take).
        assert_eq!(
            zoom_in(&mut g, &["M", "M"]),
            Err(QueryError::NotZoomedOut("M".into()))
        );
        zoom_in(&mut g, &["M"]).unwrap();
        assert_eq!(g.visible_signature(), before);
    }

    #[test]
    fn unknown_module_rejected_atomically() {
        let (mut g, _) = workflow_graph();
        let before = g.visible_signature();
        assert_eq!(
            zoom_out(&mut g, &["M", "Nope"]),
            Err(QueryError::UnknownModule("Nope".into()))
        );
        assert_eq!(g.visible_signature(), before, "failed zoom must not mutate");
    }

    #[test]
    fn interleaved_zoom_of_two_modules() {
        let (mut g, _) = workflow_graph();
        let before = g.visible_signature();
        zoom_out(&mut g, &["M"]).unwrap();
        zoom_out(&mut g, &["Agg"]).unwrap();
        zoom_in(&mut g, &["M"]).unwrap();
        zoom_in(&mut g, &["Agg"]).unwrap();
        assert_eq!(g.visible_signature(), before);
    }

    /// A resident graph behind the store trait, counting `role_of`
    /// calls, with postings computed by a sweep of its own.
    struct Probe<'a> {
        graph: &'a ProvGraph,
        role_calls: std::cell::Cell<usize>,
    }

    impl Probe<'_> {
        fn sweep(&self, keep: impl Fn(&crate::graph::Node) -> bool) -> Cow<'_, [NodeId]> {
            let ids = self.graph.iter_visible().filter(|(_, n)| keep(n));
            Cow::Owned(ids.map(|(id, _)| id).collect())
        }
    }

    impl GraphStore for Probe<'_> {
        fn node_count(&self) -> usize {
            self.graph.len()
        }
        fn is_visible(&self, id: NodeId) -> bool {
            self.graph.node(id).is_visible()
        }
        fn visible_count(&self) -> usize {
            self.graph.visible_count()
        }
        fn kind_of(&self, id: NodeId) -> Cow<'_, NodeKind> {
            Cow::Borrowed(&self.graph.node(id).slot().kind)
        }
        fn role_of(&self, id: NodeId) -> Role {
            self.role_calls.set(self.role_calls.get() + 1);
            self.graph.node(id).role
        }
        fn preds_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
            Cow::Borrowed(self.graph.node(id).preds())
        }
        fn succs_of(&self, id: NodeId) -> Cow<'_, [NodeId]> {
            Cow::Borrowed(self.graph.node(id).succs())
        }
        fn invocations(&self) -> &[crate::graph::InvocationInfo] {
            self.graph.invocations()
        }
        fn module_postings(&self, module: &str) -> Cow<'_, [NodeId]> {
            self.sweep(|n| {
                let inv = n.role.invocation();
                inv.is_some_and(|inv| self.graph.invocation(inv).module == module)
            })
        }
        fn kind_postings(&self, kind: &str) -> Cow<'_, [NodeId]> {
            self.sweep(|n| n.kind.name() == kind)
        }
    }

    #[test]
    fn planning_reads_the_roles_of_the_module_postings_only() {
        let (g, _) = workflow_graph();
        let probe = Probe {
            graph: &g,
            role_calls: std::cell::Cell::new(0),
        };
        for call in [&["M"][..], &["Agg"], &["M", "Agg"], &["Agg", "M"]] {
            let expect = plan_zoom_out(&g, call, &[], 0).unwrap();
            probe.role_calls.set(0);
            assert_eq!(plan_zoom_out(&probe, call, &[], 0).unwrap(), expect);
            // Steps 3-4 read the role of every node in the module's
            // postings, step 5 of those still visible, and no other
            // node is asked.
            let owned: usize = call.iter().map(|m| g.postings().module(m).len()).sum();
            let calls = probe.role_calls.get();
            assert!(owned < calls && calls <= 2 * owned, "{call:?}: {calls}");
        }
    }

    #[test]
    fn coarse_expr_still_spans_module_boundary() {
        let (mut g, outputs) = workflow_graph();
        zoom_out(&mut g, &["M"]).unwrap();
        let e = g.expr_of(outputs[2]).to_string();
        // The workflow input is still an ancestor through the zoom node.
        assert!(e.contains("I1"), "expr was {e}");
        // But the hidden state tuple is not.
        assert!(!e.contains("C2"), "expr was {e}");
    }
}
